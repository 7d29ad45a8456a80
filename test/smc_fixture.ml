(* Shared by the smc test executables: a [Runner.cfg] with test defaults
   and the report as the byte string the determinism checks compare. *)

module Families = Snapcc_hypergraph.Families
module Tele = Snapcc_telemetry
module Smc = Snapcc_smc

let cfg ?(algo = "cc1") ?(topo = "single2") ?(workload = "always")
    ?(daemon = "random") ?(trials = 60) ?(budget = 200) ?(workers = 1)
    ?(seed = 42) ?sprt ?sprt_within () =
  { Smc.Runner.algo;
    topo_name = topo;
    topo = Families.by_name topo;
    daemon;
    workload;
    disc = 2;
    budget;
    trials;
    workers;
    seed;
    confidence = 0.95;
    engine = `Packed;
    sprt;
    sprt_delta = 0.02;
    sprt_within }

let report c =
  match Smc.Runner.run c with
  | Ok r -> r
  | Error msg -> Alcotest.fail ("smc runner: " ^ msg)

let report_string r = Tele.Json.to_string (Smc.Report.to_json r)
