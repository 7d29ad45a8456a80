(* Golden outputs: digests of behaviour that must not move under a
   refactoring of the guard code.

   - The telemetry JSONL of monitored driver runs of CC1/CC2/CC3 on ring24,
     fig1 and line3, from a random (corrupted) initial configuration, with a
     corruption fault half-way through.  The trace records every selection,
     firing, convene and verdict, so any change in which guard is enabled
     shows up here.
   - The same for CC2 over the virtual-ring token oracle on triangle3: the
     oracle reads a non-neighbor, so the engine's dynamically recorded
     readers are exercised beyond the network's neighborhoods.
   - The telemetry JSONL of monitored message-passing runs ([Mp_engine]
     with [Spec] and [Metrics] on the hub, vector clocks on) of CC1 on
     ring9 and CC2 on fig1 over the guard closures, and of CC1 on line3
     over the packed mirror, from a random initial configuration with a
     corruption fault half-way through; the run's final counters,
     staleness watermark, [Metrics] summary and observations are appended
     to the digested text.  Every scheduler decision, delivery and clock
     stamp is in the stream, so a change in ageing, pending-set order or
     observation caching shows up here.
   - The [snapcc-tables v1] artifacts of CC1/CC2/CC3 over the tree token
     layer and over the virtual-ring oracle on single2: every table entry
     packs the chosen action, its successor and the read mask of the
     priority scan, so a guard that reads a different set of processes
     shows up here even when it returns the same value.

   The expected digests live in [fixtures/golden-digests.txt], one
   "<name> <md5 hex>" line per case.  A deliberate behaviour change updates
   that file; the failure message prints the lines to put there. *)

module Families = Snapcc_hypergraph.Families
module H = Snapcc_hypergraph.Hypergraph
module Daemon = Snapcc_runtime.Daemon
module Workload = Snapcc_workload.Workload
module Tele = Snapcc_telemetry
module X = Snapcc_experiments.Algos

let steps = 3000
let fault_at = 1500

let trace_digest (run : X.runner) h =
  let buf = Buffer.create (1 lsl 20) in
  let hub = Tele.Hub.create () in
  Tele.Hub.add_sink hub (Tele.Sink.jsonl (Buffer.add_string buf));
  let faults ~step =
    if step = fault_at then List.init (max 1 (H.n h / 2)) (fun i -> 2 * i mod H.n h)
    else []
  in
  ignore
    (run.X.run ~seed:3 ~init:`Random ~faults ~telemetry:hub
       ~daemon:(Daemon.random_subset ()) ~workload:(Workload.always_requesting h)
       ~steps h);
  Tele.Hub.close hub;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let tables_digest key ~token h ~topo =
  let entry = Option.get (Snapcc_mc.Systems.find key) in
  let module S = (val entry.Snapcc_mc.Systems.make token) in
  let module Tb = Snapcc_mc.Tables.Make (S) in
  let p = Tb.to_portable ~algo:S.name ~topo (Tb.build h) in
  let lines = Snapcc_statics.Artifact.to_lines p in
  Digest.to_hex (Digest.string (String.concat "\n" lines))

module Mp_digest (A : Snapcc_runtime.Model.ALGO) = struct
  module E = Snapcc_mp.Mp_engine.Make (A)
  module Spec = Snapcc_analysis.Spec
  module Metrics = Snapcc_analysis.Metrics

  (* the `ccsim mp' step loop, with a fault at [fault_at] *)
  let digest ?packed h =
    let buf = Buffer.create (1 lsl 20) in
    let hub = Tele.Hub.create () in
    Tele.Hub.add_sink hub (Tele.Sink.jsonl (Buffer.add_string buf));
    let eng = E.create ~seed:3 ~init:`Random ~vclock:true ~telemetry:hub ?packed h in
    let workload = Workload.always_requesting h in
    let spec = Spec.create ~telemetry:hub h ~initial:(E.obs eng) in
    let metrics = Metrics.create ~telemetry:hub h ~initial:(E.obs eng) in
    let before = ref (E.obs eng) in
    for i = 0 to steps - 1 do
      if i = fault_at then begin
        E.corrupt eng ~victims:(List.init (max 1 (H.n h / 2)) (fun k -> 2 * k mod H.n h));
        Spec.on_fault spec (E.obs eng);
        before := E.obs eng
      end;
      let inputs = Workload.inputs workload !before in
      ignore (E.step eng ~inputs);
      let after = E.obs eng in
      Spec.on_step spec ~step:i ~request_out:inputs.Snapcc_runtime.Model.request_out
        ~before:!before ~after;
      Metrics.on_step metrics ~step:i ~round:0 ~before:!before ~after;
      Workload.observe workload ~step:i after;
      before := after
    done;
    Tele.Hub.close hub;
    Buffer.add_string buf
      (Format.asprintf "sent=%d delivered=%d in_flight=%d staleness=%d@.%a@.%a@."
         (E.messages_sent eng) (E.messages_delivered eng) (E.in_flight eng)
         (E.max_staleness eng) Metrics.pp_summary
         (Metrics.finish metrics ~step:steps ~round:0)
         (Snapcc_runtime.Obs.pp_snapshot h) (E.obs eng));
    Digest.to_hex (Digest.string (Buffer.contents buf))
end

module Mp_cc1 = Mp_digest (X.Cc1)
module Mp_cc2 = Mp_digest (X.Cc2)
module Pk_cc1 =
  Snapcc_mc.Packed.Make (Snapcc_mc.Systems.Cc1_sys (Snapcc_token.Token_tree) (X.Cc1))

let topologies = [ "ring24"; "fig1"; "line3" ]

let cases () =
  let runs =
    List.concat_map
      (fun (run : X.runner) ->
        List.map
          (fun topo ->
            let name = Printf.sprintf "trace-%s-%s" (String.lowercase_ascii run.X.label) topo in
            (name, fun () -> trace_digest run (Families.by_name topo)))
          topologies)
      (X.paper_algorithms ())
  in
  let cc2_vring =
    { X.label = "CC2-vring";
      run = (fun ?seed ?init ?faults ?stop_when ?record_trace ?telemetry ~daemon ~workload ~steps h ->
          X.Run_cc2_vring.run ?seed ?init ?faults ?stop_when ?record_trace ?telemetry ~daemon
            ~workload ~steps h) }
  in
  let vring_runs =
    [ ( "trace-cc2-vring-triangle3",
        fun () -> trace_digest cc2_vring (Families.by_name "triangle3") ) ]
  in
  let tables =
    List.concat_map
      (fun (token, suffix) ->
        List.map
          (fun key ->
            ( Printf.sprintf "tables-%s%s-single2" key suffix,
              fun () -> tables_digest key ~token (Families.single 2) ~topo:"single2" ))
          [ "cc1"; "cc2"; "cc3" ])
      [ ("tree", ""); ("vring", "-vring") ]
  in
  let mp_runs =
    [ ("mp-cc1-ring9", fun () -> Mp_cc1.digest (Families.by_name "ring9"));
      ("mp-cc2-fig1", fun () -> Mp_cc2.digest (Families.by_name "fig1"));
      ( "mp-cc1-line3-packed",
        fun () ->
          let h = Families.by_name "line3" in
          Mp_cc1.digest ~packed:(Pk_cc1.hooks (Pk_cc1.build h)) h ) ]
  in
  runs @ vring_runs @ mp_runs @ tables

let expected () =
  let ic = open_in "fixtures/golden-digests.txt" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> (
          match String.split_on_char ' ' (String.trim line) with
          | [ name; hex ] -> go ((name, hex) :: acc)
          | _ -> go acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_digests () =
  let want = expected () in
  let got = List.map (fun (name, f) -> (name, f ())) (cases ()) in
  let bad =
    List.filter (fun (name, hex) -> List.assoc_opt name want <> Some hex) got
  in
  if bad <> [] then
    Alcotest.failf "golden digests differ for %s; the current outputs are:\n%s"
      (String.concat ", " (List.map fst bad))
      (String.concat "\n" (List.map (fun (n, h) -> n ^ " " ^ h) got))

let suite =
  [ ("golden", [ Alcotest.test_case "traces and tables digests" `Quick test_digests ]) ]
