(* run-ring24: monitored driver runs of CC2 on the 24-professor ring, with
   the `ccsim run -a cc2' defaults (random daemon, always-requesting
   professors, maxDisc 2, canonical start, no telemetry hub).  ring24 has
   more than 16 processes, so no packed tables exist for it and the driver
   is called without them (the CLI's default packed engine fails on
   ring24; the benchmark drives the public entry point the way it works
   today).

   A run is a sequence of [Driver.Make(A).run] calls of [segment] steps,
   each from its own seed, until the clock runs out; every call must take
   its whole horizon.  Throughput is the median over windows of [window]
   monitored steps.  Traced: the loop the driver runs, spelled out here so
   that every call into the engine, observation, specification, metrics
   and workload layers gets a span, plus one extra [E.enabled] probe per
   step; each traced segment is replayed through [Driver.Make(A).run],
   which must reproduce it exactly and gives the untraced time of the
   same work. *)

open Common
module Model = Snapcc_runtime.Model
module Daemon = Snapcc_runtime.Daemon
module Workload = Snapcc_workload.Workload
module Spec = Snapcc_analysis.Spec
module Metrics = Snapcc_analysis.Metrics
module Driver = Snapcc_experiments.Driver
module R = Snapcc_experiments.Algos.Run_cc2
module E = R.E

let topology () = Snapcc_hypergraph.Families.by_name "ring24"
let daemon () = Daemon.random_subset ()
let workload h = Workload.always_requesting ~disc_len:(fun _ -> 2) h
let segment = 10_000
let window = 1024

(* Topology, engine and monitors up to the end of the first monitored
   step. *)
let setup_probe ~seed () =
  let t0 = now () in
  let h = topology () in
  let first = ref nan in
  let on_obs ~step:_ _ = if Float.is_nan !first then first := now () in
  ignore
    (R.run ~seed ~on_obs ~daemon:(daemon ()) ~workload:(workload h) ~steps:1 h);
  !first -. t0

let run_segment ?on_obs ~seed h =
  R.run ~seed ?on_obs ~daemon:(daemon ()) ~workload:(workload h) ~steps:segment h

(* The whole horizon was taken: no stutter, every step monitored. *)
let horizon_taken r = r.Driver.outcome = `Steps_exhausted && r.Driver.steps = segment

let measure ~seed ~seconds =
  let setup = List.init 25 (fun _ -> normalized (setup_probe ~seed)) in
  let h = topology () in
  let w = windows ~window in
  let on_obs ~step:_ _ = mark w in
  let t0 = now () in
  (* keep only counts per driver run, so the heap does not grow with the
     number of runs *)
  let runs =
    segments ~seconds (fun b ->
        let r = run_segment ~on_obs ~seed:(segment_seed ~seed b) h in
        (r.Driver.steps, List.length r.Driver.violations, horizon_taken r))
  in
  let wall = now () -. t0 in
  let steps = List.fold_left (fun a (s, _, _) -> a + s) 0 runs in
  let violations = List.fold_left (fun a (_, v, _) -> a + v) 0 runs in
  let taken = List.for_all (fun (_, _, t) -> t) runs in
  { attempted = max 1 steps;
    failed = (if taken then violations else max 1 steps);
    gates = [ ("zero Spec violations", violations = 0);
              (Printf.sprintf "every driver run took its %d-step horizon" segment, taken) ];
    metrics = [ ("setup_s", median (List.map snd setup)); ("ops_per_s", window_rate w);
                ("peak_heap_mb", peak_heap_mb ()) ];
    notes = [ ("ops_per_s is", "steps_per_s: monitored real steps per second \
                                (median over windows of 1024 steps)") ]
            @ window_notes w
            @ [ ("raw setup_s", Printf.sprintf "%.6f" (median (List.map fst setup)));
                ("driver runs", Printf.sprintf "%d x %d steps" (List.length runs) segment);
                ("raw mean steps_per_s", Printf.sprintf "%.1f" (float steps /. wall));
                ("engine path", "closure (no tables: ring24 has 24 processes)") ] }

type layers = {
  k_step : Span.kind;
  k_inputs : Span.kind;
  k_scan : Span.kind;
  k_estep : Span.kind;
  k_obs : Span.kind;
  k_spec : Span.kind;
  k_metrics : Span.kind;
  k_observe : Span.kind;
}

type traced_segment = {
  profile : (string * int) list;  (** [E.profile] at the end *)
  packed : bool;  (** [E.engine_kind] at the end *)
  steps : int;
  enabled : int;  (** enabled processes summed over the probes *)
  violations : int;
  faithful : bool;
  traced_wall : float;  (** normalized, without the extra probes *)
  untraced_wall : float;  (** normalized *)
}

(* The driver's loop for [segment] iterations (faults, trace and telemetry
   off), one span per layer call, then the same run through the driver. *)
let traced_segment sp l ~seed h =
  let scan0 = l.k_scan.Span.total in
  let r0 = reference () in
  let t0 = now () in
  let wl = workload h in
  let eng = E.create ~seed ~init:`Canonical ~daemon:(daemon ()) h in
  let initial = E.obs eng in
  let spec = Spec.create h ~initial in
  let metrics = Metrics.create h ~initial in
  let before = ref initial and stutters = ref 0 and steps = ref 0 in
  let enabled = ref 0 in
  (try
     for _ = 1 to segment do
       Span.set_op sp (E.steps_taken eng);
       Span.enter sp l.k_step;
       let inputs = Span.time sp l.k_inputs (fun () -> Workload.inputs wl !before) in
       enabled :=
         !enabled + List.length (Span.time sp l.k_scan (fun () -> E.enabled eng ~inputs));
       let report = Span.time sp l.k_estep (fun () -> E.step eng ~inputs) in
       if report.Model.terminal then begin
         incr stutters;
         Span.time sp l.k_observe (fun () ->
             Workload.observe wl ~step:(E.steps_taken eng) !before);
         Span.leave sp;
         if !stutters > 1000 then raise Exit
       end
       else begin
         stutters := 0;
         let after = Span.time sp l.k_obs (fun () -> E.obs eng) in
         Span.time sp l.k_spec (fun () ->
             Spec.on_step spec ~step:report.Model.step
               ~request_out:inputs.Model.request_out ~before:!before ~after);
         Span.time sp l.k_metrics (fun () ->
             Metrics.on_step metrics ~step:report.Model.step
               ~round:report.Model.round ~before:!before ~after);
         Span.time sp l.k_observe (fun () ->
             Workload.observe wl ~step:report.Model.step after);
         before := after;
         incr steps;
         Span.leave sp
       end
     done
   with Exit -> ());
  let summary = Metrics.finish metrics ~step:(E.steps_taken eng) ~round:(E.rounds eng) in
  let traced_wall = now () -. t0 -. (l.k_scan.Span.total -. scan0) in
  let traced_wall = traced_wall *. nominal /. ((r0 +. reference ()) /. 2.) in
  let r, _, untraced_wall = timed (fun () -> run_segment ~seed h) in
  let faithful =
    horizon_taken r
    && r.Driver.steps = !steps
    && r.Driver.rounds = E.rounds eng
    && r.Driver.convened = Spec.convened spec
    && List.length r.Driver.violations = List.length (Spec.violations spec)
    && Array.for_all2 Snapcc_runtime.Obs.equal r.Driver.final_obs (E.obs eng)
    && compare r.Driver.summary summary = 0
  in
  { profile = E.profile eng; packed = E.engine_kind eng = `Packed; steps = !steps;
    enabled = !enabled;
    violations = List.length (Spec.violations spec); faithful; traced_wall;
    untraced_wall }

let traced ~seed ~seconds sp =
  let l =
    { k_step = Span.kind sp "driver.step"; k_inputs = Span.kind sp "workload.inputs";
      k_scan = Span.kind sp "engine.enabled"; k_estep = Span.kind sp "engine.step";
      k_obs = Span.kind sp "obs.project"; k_spec = Span.kind sp "spec.on_step";
      k_metrics = Span.kind sp "metrics.on_step";
      k_observe = Span.kind sp "workload.observe" }
  in
  let h = topology () in
  let segs =
    segments ~seconds (fun b -> traced_segment sp l ~seed:(segment_seed ~seed b) h)
  in
  let sum f = List.fold_left (fun a s -> a + f s) 0 segs in
  let sumf f = List.fold_left (fun a s -> a +. f s) 0. segs in
  let steps = sum (fun s -> s.steps) and violations = sum (fun s -> s.violations) in
  let faithful = List.for_all (fun s -> s.faithful) segs in
  let counter name = float (sum (fun s -> List.assoc name s.profile)) in
  let hits = counter "engine_scan_hits" and fallbacks = counter "engine_scan_fallbacks" in
  let n = float (max 1 steps) in
  let probes = float (max 1 l.k_scan.Span.count) in
  let us k = scale_to_nominal k /. n *. 1e6 in
  let per_step k = us k.Span.total in
  { attempted = max 1 steps;
    failed = (if faithful then violations else max 1 steps);
    gates = [ ("zero Spec violations", violations = 0);
              ("traced loop reproduces Driver.run step for step", faithful) ];
    metrics =
      [ ("engine.step_us", us l.k_estep.Span.self);
        ("engine.scan_us", scale_to_nominal l.k_scan.Span.total /. probes *. 1e6);
        ("engine.enabled_mean", float (sum (fun s -> s.enabled)) /. probes);
        ("engine.applies_per_step", counter "engine_applies" /. n);
        ("engine.hit_ratio", ratio hits (hits +. fallbacks));
        ("engine.fallbacks", fallbacks);
        ("engine.packed", if (List.hd segs).packed then 1. else 0.);
        ("engine.table_coverage", 0.);
        ("obs.project_us", per_step l.k_obs);
        ("spec.on_step_us", per_step l.k_spec);
        ("spec.discussion_violations", 0.);
        ("metrics.on_step_us", per_step l.k_metrics);
        ("workload.us", per_step l.k_inputs +. per_step l.k_observe);
        ("driver.other_us", us l.k_step.Span.self);
        ("tracing_overhead",
         ratio (sumf (fun s -> s.traced_wall)) (sumf (fun s -> s.untraced_wall))) ];
    notes = [ ("traced driver runs", Printf.sprintf "%d x %d steps" (List.length segs) segment);
              reference_note ();
              ("tracing_overhead base",
               "traced wall time without the extra enabled probes / \
                Driver.run wall time of the same steps") ] }
