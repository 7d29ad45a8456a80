(* smc-triangle3: the smc-deadlock-reach configuration of EXPERIMENTS.md —
   cc2-vring on the conflict triangle from uniformly corrupted starts,
   budget 150, always-requesting professors, random daemon, through
   [Smc.Runner.run] with 2 workers (the packed tables are built under the
   runner's startup cap, which skips the triangle's processes).

   Untraced: runner calls of [batch] trials each, one seed per call
   derived from the benchmark seed, until the clock runs out; throughput
   is the median over calls, each normalized by the reference kernel run
   on both cores, as the pool uses both.  The first call's report must be
   byte-identical to the report of the same trials run one by one through
   [Trial.Of(A).run] in this process and built with [Report.build] — the
   traced run when tracing, an untraced one otherwise. *)

open Common
module Daemon = Snapcc_runtime.Daemon
module Workload = Snapcc_workload.Workload
module Spec = Snapcc_analysis.Spec
module Metrics = Snapcc_analysis.Metrics
module Json = Snapcc_telemetry.Json
module X = Snapcc_experiments.Algos
module Runner = Snapcc_smc.Runner
module Report = Snapcc_smc.Report
module Trial = Snapcc_smc.Trial

module Sys_cc2v =
  Snapcc_mc.Systems.Cc23_sys (Snapcc_token.Token_vring) (X.Cc2_vring)
    (struct
      let cursor = false
    end)

module Pk = Snapcc_mc.Packed.Make (Sys_cc2v)
module T = Trial.Of (X.Cc2_vring)
module E = X.Run_cc2_vring.E

let algo = "cc2-vring"
let budget = 150
let disc = 2
let workers = 2
let batch = 1000
let runner_pack_cap = 1 lsl 20

(* `ccsim smc --family triangle -n 3' resolves to this name *)
let topology () = ("triangle3", Snapcc_hypergraph.Families.by_name "triangle3")

let cfg ~seed ~trials ~workers =
  let topo_name, topo = topology () in
  { Runner.algo; topo_name; topo; daemon = "random"; workload = "always"; disc;
    budget; trials; workers; seed; confidence = 0.95; engine = `Packed;
    sprt = None; sprt_delta = 0.02; sprt_within = None }

let run_report c =
  match Runner.run c with Ok r -> r | Error e -> failwith ("smc: " ^ e)

let to_string r = Json.to_string (Report.to_json r)

(* The seed of the [b]-th runner call. *)
let batch_seed ~seed b = Trial.derive ~seed:(seed lxor 0x5eed) b

(* Runner calls until [seconds] have passed; returns (seed, report, raw
   wall time, normalized wall time) per call, first call first. *)
let batches ~seed ~seconds =
  segments ~seconds (fun b ->
      let s = batch_seed ~seed b in
      let r, raw, norm =
        timed ~kernel:reference_pair (fun () ->
            run_report (cfg ~seed:s ~trials:batch ~workers))
      in
      (s, r, raw, norm))

(* The same trials one by one in this process, as the runner's workers
   run them; [on_trial] wraps each call. *)
let sequential ?(on_trial = fun f -> f ()) ~seed () =
  let c = cfg ~seed ~trials:batch ~workers:1 in
  let packed =
    try Some (Pk.hooks (Pk.build ~cap:runner_pack_cap c.Runner.topo)) with Failure _ -> None
  in
  let records =
    List.init batch (fun i ->
        on_trial (fun () ->
            T.run ?packed ~seed ~budget ~daemon:"random" ~workload:"always" ~disc
              c.Runner.topo ~trial:i))
  in
  (c, records)

let build c records =
  to_string
    (Report.build ~algo ~topo:c.Runner.topo_name ~daemon:c.Runner.daemon
       ~workload:c.Runner.workload ~disc ~budget ~seed:c.Runner.seed
       ~confidence:c.Runner.confidence records)

let gates_of runs ~identical =
  let bad = List.fold_left (fun a (_, r, _, _) -> a + min batch r.Report.violations) 0 runs in
  let complete = List.for_all (fun (_, r, _, _) -> r.Report.trials = batch) runs in
  let attempted = batch * List.length runs in
  ( attempted,
    (if identical && complete then bad else attempted),
    [ ("zero Spec violations", bad = 0);
      (Printf.sprintf "every runner call aggregated %d trials" batch, complete);
      ("2-worker report byte-identical to the sequential one", identical) ] )

(* The runner from its start until its first trials are in: table build
   (skipped), fork of both workers, one trial each, merge and report. *)
let setup_probe ~seed () =
  let _, raw, norm =
    timed ~kernel:reference_pair (fun () -> run_report (cfg ~seed ~trials:workers ~workers))
  in
  (raw, norm)

let measure ~seed ~seconds =
  let setup = List.init 9 (fun _ -> setup_probe ~seed ()) in
  let runs = batches ~seed ~seconds in
  let peak = peak_heap_mb () in
  let s0, r0, _, _ = List.hd runs in
  let c, records = sequential ~seed:s0 () in
  let identical = build c records = to_string r0 in
  let attempted, failed, gates = gates_of runs ~identical in
  { attempted; failed; gates;
    metrics =
      [ ("setup_s", median (List.map snd setup));
        ("ops_per_s", median (List.map (fun (_, _, _, t) -> float batch /. t) runs));
        ("peak_heap_mb", peak) ];
    notes =
      [ ("ops_per_s is",
         Printf.sprintf "trials_per_s: median over %d runner calls of %d trials, %d workers"
           (List.length runs) batch workers);
        ("smc.deadlocked",
         Printf.sprintf "%d of the first call's %d trials" r0.Report.deadlock.Report.count batch);
        ("peak_heap_mb is", "the parent process only");
        ("raw setup_s", Printf.sprintf "%.6f" (median (List.map fst setup)));
        ("raw trials_per_s",
         Printf.sprintf "%.1f" (median (List.map (fun (_, _, t, _) -> float batch /. t) runs)));
        reference_note () ] }

(* Engine + Spec + Metrics creation from a corrupted start, as each
   trial does it. *)
let trial_setup_us ~seed h packed =
  let one i =
    let t0 = now () in
    let eng =
      E.create ~seed:(Trial.derive ~seed i) ~init:`Random ?packed
        ~daemon:(Daemon.random_subset ()) h
    in
    let initial = E.obs eng in
    ignore (Spec.create h ~initial);
    ignore (Metrics.create h ~initial);
    (scale_to_nominal (now () -. t0) *. 1e6, eng)
  in
  let samples = List.init 200 one in
  (median (List.map fst samples), snd (List.hd samples))

let traced ~seed ~seconds sp =
  let k_trial = Span.kind ~samples:true sp "smc.trial" in
  let k_report = Span.kind sp "smc.report" in
  let runs = batches ~seed ~seconds in
  let s0, r0, _, _ = List.hd runs in
  let pool_wall = median (List.map (fun (_, _, raw, _) -> raw) runs) in
  (* untraced sequential baseline of the same trials *)
  let r1, _, untraced_wall =
    timed (fun () -> run_report (cfg ~seed:s0 ~trials:batch ~workers:1))
  in
  let (c, report), _, traced_wall =
    timed (fun () ->
        let c, records =
          sequential ~seed:s0
            ~on_trial:(fun f ->
              Span.set_op sp (Span.total_spans sp);
              Span.time sp k_trial f)
            ()
        in
        (c, Span.time sp k_report (fun () -> build c records)))
  in
  let identical = report = to_string r0 && report = to_string r1 in
  let attempted, failed, gates = gates_of runs ~identical in
  let busy = k_trial.Span.total in
  let ms q = scale_to_nominal (quantile q k_trial.Span.samples) *. 1e3 in
  let h = c.Runner.topo in
  let pk = try Some (Pk.build ~cap:runner_pack_cap h) with Failure _ -> None in
  let setup_us, eng = trial_setup_us ~seed:s0 h (Option.map Pk.hooks pk) in
  (* engine path: one trial's worth of steps on a probe engine *)
  let wl = Trial.workload_of "always" ~disc ~seed:s0 h in
  ignore
    (E.run eng ~steps:budget
       ~inputs_at:(fun e -> Workload.inputs wl (E.obs e))
       ~on_step:(fun e _ -> Workload.observe wl ~step:(E.steps_taken e) (E.obs e))
       ());
  let prof = E.profile eng in
  let hits = float (List.assoc "engine_scan_hits" prof) in
  let fallbacks = float (List.assoc "engine_scan_fallbacks" prof) in
  { attempted; failed; gates;
    metrics =
      [ ("smc_trial.ms_p50", ms 0.5);
        ("smc_trial.ms_p99", ms 0.99);
        ("smc_trial.samples", float k_trial.Span.count);
        ("smc_trial.setup_us", setup_us);
        ("smc_pool.efficiency", ratio busy (float workers *. pool_wall));
        ("smc_report.ms", scale_to_nominal k_report.Span.total *. 1e3);
        ("smc.deadlocked", float r0.Report.deadlock.Report.count);
        ("engine.hit_ratio", ratio hits (hits +. fallbacks));
        ("engine.fallbacks", fallbacks);
        ("engine.packed", if E.engine_kind eng = `Packed then 1. else 0.);
        ("engine.table_coverage", Option.fold ~none:0. ~some:Pk.coverage pk);
        ("tracing_overhead", ratio traced_wall untraced_wall) ];
    notes =
      [ ("runner calls", string_of_int (List.length runs));
        ("smc_pool.efficiency base",
         Printf.sprintf "sum of %d traced sequential trial times / (%d workers x median \
                         wall time of an untraced %d-trial runner call), raw times"
           batch workers batch);
        ("tracing_overhead base",
         "traced sequential trials + report / untraced 1-worker runner call, same trials");
        ("engine.* from", "a probe engine stepped for one trial budget");
        reference_note () ] }
