(* mp-ring9: the `ccsim mp' pipeline for CC1 on the 9-professor ring —
   Mp_engine with the CLI's default packed hooks (built under the CLI's
   startup cap, which skips every ring9 process, so the run is served by
   the guard closures), always-requesting professors (maxDisc 2), Spec and
   Metrics monitors, deliver-bias 0.5, canonical start, and a telemetry
   hub with vector clocks on, as `ccsim mp --emit-trace' runs it — here
   with a sink that discards the events instead of writing a file.

   A run is a sequence of [segment]-step runs of the CLI's step loop, each
   from its own seed, until the clock runs out; throughput is the median
   over windows of [window] steps.  Traced: the same loop with a span
   around each layer call, and a counting sink whose own time is a span
   (so it is carved out of the engine step that emits the event); each
   traced segment is replayed untraced, which must reproduce it and gives
   the untraced time of the same work. *)

open Common
module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Workload = Snapcc_workload.Workload
module Spec = Snapcc_analysis.Spec
module Metrics = Snapcc_analysis.Metrics
module Tele = Snapcc_telemetry
module X = Snapcc_experiments.Algos
module Sys_cc1 = Snapcc_mc.Systems.Cc1_sys (Snapcc_token.Token_tree) (X.Cc1)
module Pk = Snapcc_mc.Packed.Make (Sys_cc1)
module M = Snapcc_mp.Mp_engine.Make (X.Cc1)

let cli_pack_cap = 1 lsl 20
let segment = 200_000
let window = 16_384

type run = {
  eng : M.t;
  spec : Spec.t;
  metrics : Metrics.t;
  wl : Workload.t;
  coverage : float;  (** share of processes with stored tables *)
  mutable before : Snapcc_runtime.Obs.t array;
  mutable steps : int;
}

(* Everything `ccsim mp' builds before its first step. *)
let start ~seed ~sink =
  let h = Snapcc_hypergraph.Families.by_name "ring9" in
  let wl = Workload.always_requesting ~disc_len:(fun _ -> 2) h in
  let hub = Tele.Hub.create () in
  Tele.Hub.add_sink hub sink;
  let pk = Pk.build ~cap:cli_pack_cap h in
  let packed = Pk.hooks pk in
  let eng =
    M.create ~seed ~init:`Canonical ~deliver_bias:0.5 ~vclock:true
      ~telemetry:hub ~packed h
  in
  let spec = Spec.create ~telemetry:hub h ~initial:(M.obs eng) in
  Tele.Hub.emit hub
    (Tele.Event.Run_start
       { algo = X.Cc1.name; daemon = "mp-scheduler"; workload = Workload.name wl;
         seed; n = H.n h; m = H.m h;
         topo = Snapcc_hypergraph.Hypergraph_io.to_string h });
  let metrics = Metrics.create ~telemetry:hub h ~initial:(M.obs eng) in
  { eng; spec; metrics; wl; coverage = Pk.coverage pk; before = M.obs eng;
    steps = 0 }

let step r =
  let i = r.steps in
  let inputs = Workload.inputs r.wl r.before in
  ignore (M.step r.eng ~inputs);
  let after = M.obs r.eng in
  Spec.on_step r.spec ~step:i ~request_out:inputs.Model.request_out
    ~before:r.before ~after;
  Metrics.on_step r.metrics ~step:i ~round:0 ~before:r.before ~after;
  Workload.observe r.wl ~step:i after;
  r.before <- after;
  r.steps <- i + 1

let discard = Tele.Sink.custom ~emit:ignore ~close:ignore

let setup_probe ~seed () =
  let t0 = now () in
  step (start ~seed ~sink:discard);
  now () -. t0

(* Spec verdicts of a run, split into the staleness mode that the
   message-passing transformation is known to break — a meeting ends on a
   stale view (EXPERIMENTS.md, mp-future-work), which the monitor reports
   under one of the two discussion rules — and everything else (exclusion,
   synchronization, meeting integrity), which must not occur. *)
let stale_rules = [ "essential-discussion"; "voluntary-discussion" ]

(* What a finished segment leaves behind: its verdicts split into the
   staleness mode and the rest (with their rule names), and its engine
   path — the engine and monitors themselves are dropped, so the heap does
   not grow with the number of segments. *)
type verdicts = { stale : int; others : string list; kind : [ `Packed | `Closure ] }

let verdicts r =
  let vs = Spec.violations r.spec in
  let others =
    List.filter_map
      (fun v -> if List.mem v.Spec.rule stale_rules then None else Some v.Spec.rule)
      vs
  in
  { stale = List.length vs - List.length others; others; kind = M.engine_kind r.eng }

let gates ~others = [ ("no exclusion, synchronization or integrity violation", others = []) ]

let measure ~seed ~seconds =
  let setup = List.init 25 (fun _ -> normalized (setup_probe ~seed)) in
  let w = windows ~window in
  let t0 = now () in
  let runs =
    segments ~seconds (fun b ->
        let r = start ~seed:(segment_seed ~seed b) ~sink:discard in
        for _ = 1 to segment do
          step r;
          mark w
        done;
        verdicts r)
  in
  let wall = now () -. t0 in
  let steps = segment * List.length runs in
  let stale = List.fold_left (fun a v -> a + v.stale) 0 runs in
  let others = List.concat_map (fun v -> v.others) runs in
  { attempted = steps;
    failed = List.length others;
    gates = gates ~others;
    metrics = [ ("setup_s", median (List.map snd setup)); ("ops_per_s", window_rate w);
                ("peak_heap_mb", peak_heap_mb ()) ];
    notes = [ ("ops_per_s is", "steps_per_s: monitored scheduler steps per second \
                                (median over windows of 16384 steps)") ]
            @ window_notes w
            @ [ ("raw setup_s", Printf.sprintf "%.6f" (median (List.map fst setup)));
                ("mp runs", Printf.sprintf "%d x %d steps" (List.length runs) segment);
                ("raw mean steps_per_s", Printf.sprintf "%.1f" (float steps /. wall));
                ("discussion-rule violations", string_of_int stale);
                ("other violations", String.concat "," others);
                ("engine path",
                 match (List.hd runs).kind with
                 | `Packed -> "packed hooks, no stored table" | `Closure -> "closure") ] }

type traced_segment = {
  v : verdicts;
  delivered : int;
  max_staleness : int;
  hits : int;
  fallbacks : int;
  coverage : float;
  faithful : bool;
  traced_wall : float;  (** normalized *)
  untraced_wall : float;  (** normalized *)
}

let traced ~seed ~seconds sp =
  let k_step = Span.kind sp "mp.step" in
  let k_inputs = Span.kind sp "workload.inputs" in
  let k_estep = Span.kind sp "mp_engine.step" in
  let k_sink = Span.kind sp "telemetry.sink" in
  let k_obs = Span.kind sp "obs.project" in
  let k_spec = Span.kind sp "spec.on_step" in
  let k_metrics = Span.kind sp "metrics.on_step" in
  let k_observe = Span.kind sp "workload.observe" in
  let events = ref 0 in
  let counting =
    Tele.Sink.custom ~close:ignore ~emit:(fun _ ->
        Span.time sp k_sink (fun () -> incr events))
  in
  let in_flight = ref 0 and events_in_steps = ref 0 in
  (* one traced segment, then the same segment untraced *)
  let one b =
    let seed = segment_seed ~seed b in
    let r0 = reference () in
    let t0 = now () in
    let r = start ~seed ~sink:counting in
    let events0 = !events in
    for i = 0 to segment - 1 do
      Span.set_op sp i;
      Span.enter sp k_step;
      let inputs = Span.time sp k_inputs (fun () -> Workload.inputs r.wl r.before) in
      ignore (Span.time sp k_estep (fun () -> M.step r.eng ~inputs));
      let after = Span.time sp k_obs (fun () -> M.obs r.eng) in
      Span.time sp k_spec (fun () ->
          Spec.on_step r.spec ~step:i ~request_out:inputs.Model.request_out
            ~before:r.before ~after);
      Span.time sp k_metrics (fun () ->
          Metrics.on_step r.metrics ~step:i ~round:0 ~before:r.before ~after);
      Span.time sp k_observe (fun () -> Workload.observe r.wl ~step:i after);
      r.before <- after;
      r.steps <- i + 1;
      Span.leave sp;
      in_flight := !in_flight + M.in_flight r.eng
    done;
    events_in_steps := !events_in_steps + (!events - events0);
    let traced_wall = (now () -. t0) *. nominal /. ((r0 +. reference ()) /. 2.) in
    let u, _, untraced_wall =
      timed (fun () ->
          let u = start ~seed ~sink:discard in
          for _ = 1 to segment do step u done;
          u)
    in
    let faithful =
      M.messages_sent u.eng = M.messages_sent r.eng
      && M.messages_delivered u.eng = M.messages_delivered r.eng
      && M.max_staleness u.eng = M.max_staleness r.eng
      && Spec.convened u.spec = Spec.convened r.spec
      && List.length (Spec.violations u.spec) = List.length (Spec.violations r.spec)
      && Array.for_all2 Snapcc_runtime.Obs.equal (M.obs u.eng) (M.obs r.eng)
    in
    let prof = M.profile r.eng in
    { v = verdicts r; delivered = M.messages_delivered r.eng;
      max_staleness = M.max_staleness r.eng; hits = List.assoc "mp_pk_hits" prof;
      fallbacks = List.assoc "mp_pk_fallbacks" prof; coverage = r.coverage; faithful;
      traced_wall; untraced_wall }
  in
  let segs = segments ~seconds one in
  let sum f = List.fold_left (fun a s -> a + f s) 0 segs in
  let sumf f = List.fold_left (fun a s -> a +. f s) 0. segs in
  let steps = segment * List.length segs in
  let others = List.concat_map (fun s -> s.v.others) segs in
  let faithful = List.for_all (fun s -> s.faithful) segs in
  let hits = float (sum (fun s -> s.hits)) and fallbacks = float (sum (fun s -> s.fallbacks)) in
  let s0 = List.hd segs in
  let n = float steps in
  let us t = scale_to_nominal t /. n *. 1e6 in
  let per_step k = us k.Span.total in
  { attempted = steps;
    failed = (if faithful then List.length others else steps);
    gates = gates ~others @ [ ("traced loop reproduces the untraced one", faithful) ];
    metrics =
      [ ("mp_engine.step_us", us k_estep.Span.self);
        ("mp_engine.delivered_per_step", float (sum (fun s -> s.delivered)) /. n);
        ("mp_engine.in_flight_mean", float !in_flight /. n);
        ("mp_engine.max_staleness",
         float (List.fold_left (fun a s -> max a s.max_staleness) 0 segs));
        ("engine.hit_ratio", ratio hits (hits +. fallbacks));
        ("engine.fallbacks", fallbacks);
        ("engine.packed", if s0.v.kind = `Packed then 1. else 0.);
        ("engine.table_coverage", s0.coverage);
        ("obs.project_us", per_step k_obs);
        ("spec.on_step_us", per_step k_spec);
        ("spec.discussion_violations", float (sum (fun s -> s.v.stale)));
        ("metrics.on_step_us", per_step k_metrics);
        ("workload.us", per_step k_inputs +. per_step k_observe);
        ("telemetry.events_per_step", float !events_in_steps /. n);
        ("telemetry.sink_us", per_step k_sink);
        ("driver.other_us", us k_step.Span.self);
        ("tracing_overhead",
         ratio (sumf (fun s -> s.traced_wall)) (sumf (fun s -> s.untraced_wall))) ];
    notes = [ ("traced mp runs", Printf.sprintf "%d x %d steps" (List.length segs) segment);
              reference_note ();
              ("tracing_overhead base",
               "traced wall time / untraced wall time of the same steps") ] }
