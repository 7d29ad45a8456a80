(** One-stop runner: engine + workload + specification monitor + metrics.

    Every experiment and most integration tests funnel through [Make(A).run]
    so that each simulated step is judged against the paper's specification
    (see {!Snapcc_analysis.Spec}) and measured (see
    {!Snapcc_analysis.Metrics}). *)

module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
module Daemon = Snapcc_runtime.Daemon
module Trace = Snapcc_runtime.Trace
module Workload = Snapcc_workload.Workload
module Spec = Snapcc_analysis.Spec
module Metrics = Snapcc_analysis.Metrics
module Tele = Snapcc_telemetry

type result = {
  algo : string;
  daemon : string;
  workload : string;
  outcome : [ `Terminal | `Stopped | `Steps_exhausted ];
  steps : int;
  rounds : int;
  final_obs : Obs.t array;
  violations : Spec.violation list;
  convened : (int * int) list;
  convene_count : int array;
  participations : int array;
  summary : Metrics.summary;
  trace : Trace.t option;
}

let ok r = r.violations = []

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%s under %s / %s: %s after %d steps (%d rounds)@ %a@ %d violations@]"
    r.algo r.daemon r.workload
    (match r.outcome with
     | `Terminal -> "terminal"
     | `Stopped -> "stopped"
     | `Steps_exhausted -> "horizon reached")
    r.steps r.rounds Metrics.pp_summary r.summary
    (List.length r.violations)

module Make (A : Model.ALGO) = struct
  module E = Snapcc_runtime.Engine.Make (A)

  (* like [run] below, but also returns the final typed configuration (used
     by the dynamic-hypergraph experiment to carry states across changes) *)
  let run_with_states ?(seed = 0) ?(init : [ `Canonical | `Random ] = `Canonical)
      ?init_states ?(check_locality = false) ?packed ?faults
      ?(stop_when = fun _ -> false)
      ?(on_obs = fun ~step:_ _ -> ()) ?(record_trace = false)
      ?(stutter_limit = 1000) ?telemetry ~daemon ~workload ~steps h =
    let init =
      match init_states with
      | Some states -> `States states
      | None -> (init :> [ `Canonical | `Random | `States of A.state array ])
    in
    let eng = E.create ~seed ~check_locality ~init ?packed ~daemon h in
    let initial = E.obs eng in
    let spec = Spec.create ?telemetry h ~initial in
    let metrics = Metrics.create ?telemetry h ~initial in
    let trace = if record_trace then Some (Trace.create h ~initial) else None in
    (* events are built only when a hub listens *)
    let emit ev =
      match telemetry with Some hub -> Tele.Hub.emit hub (ev ()) | None -> ()
    in
    let step_counter =
      Option.map (fun hub -> Tele.Registry.counter (Tele.Hub.registry hub) "steps")
        telemetry
    in
    emit (fun () ->
        Tele.Event.Run_start
          { algo = A.name;
            daemon = Daemon.name daemon;
            workload = Workload.name workload;
            seed;
            n = Snapcc_hypergraph.Hypergraph.n h;
            m = Snapcc_hypergraph.Hypergraph.m h;
            topo = Snapcc_hypergraph.Hypergraph_io.to_string h });
    let outcome = ref `Steps_exhausted in
    let before = ref initial in
    let last_round = ref 0 in
    let stutters = ref 0 in
    let awaiting_recover = ref false in
    (try
       for _i = 0 to steps - 1 do
         (match faults with
          | None -> ()
          | Some f ->
            (match f ~step:(E.steps_taken eng) with
             | [] -> ()
             | victims ->
               E.corrupt eng ~victims ();
               let corrupted = E.obs eng in
               Spec.on_fault spec corrupted;
               emit (fun () -> Tele.Event.Fault { step = E.steps_taken eng; victims });
               awaiting_recover := true;
               (match trace with
                | Some tr ->
                  Trace.record_fault tr ~step:(E.steps_taken eng) corrupted
                | None -> ());
               before := corrupted));
         let inputs = Workload.inputs workload !before in
         let report = E.step eng ~inputs in
         if report.Model.terminal then begin
           (* No action is enabled under the *current* inputs, but inputs
              evolve: let the workload observe (advancing its timers and
              coins) and stutter.  Only a long stretch of stutters — the
              workload has visibly frozen — ends the run. *)
           stutters := !stutters + 1;
           Workload.observe workload ~step:(E.steps_taken eng) !before;
           if !stutters > stutter_limit then begin
             outcome := `Terminal;
             raise Exit
           end
         end
         else begin
           stutters := 0;
           let after = E.obs eng in
           (* telemetry: engine step (daemon selection, meeting set),
              per-process firings, token handoffs, post-fault recovery *)
           (match telemetry with
            | None -> ()
            | Some _ ->
              Option.iter (fun c -> Tele.Registry.incr c) step_counter;
              let meetings = Obs.meetings h after in
              emit (fun () ->
                  Tele.Event.Step
                    { step = report.Model.step;
                      round = report.Model.round;
                      selected = report.Model.selected;
                      neutralized = report.Model.neutralized;
                      meetings });
              List.iter
                (fun (p, label) ->
                  emit (fun () -> Tele.Event.Action { step = report.Model.step; p; label }))
                report.Model.executed;
              Array.iteri
                (fun p (o : Obs.t) ->
                  if o.Obs.has_token && not (!before).(p).Obs.has_token then
                    emit (fun () -> Tele.Event.Token_handoff { step = report.Model.step; p }))
                after;
              if !awaiting_recover then (
                match
                  List.find_opt (fun e -> not (Obs.meets h !before e)) meetings
                with
                | Some eid ->
                  awaiting_recover := false;
                  emit (fun () -> Tele.Event.Recover { step = report.Model.step; eid })
                | None -> ()));
           Spec.on_step spec ~step:report.Model.step
             ~request_out:inputs.Model.request_out ~before:!before ~after;
           Metrics.on_step metrics ~step:report.Model.step ~round:report.Model.round
             ~before:!before ~after;
           Workload.observe workload ~step:report.Model.step after;
           (match trace with Some tr -> Trace.record tr report after | None -> ());
           on_obs ~step:report.Model.step after;
           last_round := report.Model.round;
           before := after;
           if stop_when after then begin
             outcome := `Stopped;
             raise Exit
           end
         end
       done
     with Exit -> ());
    emit (fun () ->
        Tele.Event.Run_end
          { outcome =
              (match !outcome with
               | `Terminal -> "terminal"
               | `Stopped -> "stopped"
               | `Steps_exhausted -> "steps_exhausted");
            steps = E.steps_taken eng;
            rounds = E.rounds eng });
    ( {
        algo = A.name;
        daemon = Daemon.name daemon;
        workload = Workload.name workload;
        outcome = !outcome;
        steps = E.steps_taken eng;
        rounds = E.rounds eng;
        final_obs = E.obs eng;
        violations = Spec.violations spec;
        convened = Spec.convened spec;
        convene_count = Spec.convene_count spec;
        participations = Spec.participations spec;
        summary = Metrics.finish metrics ~step:(E.steps_taken eng) ~round:(E.rounds eng);
        trace;
      },
      E.states eng )

  let run ?seed ?init ?init_states ?check_locality ?packed ?faults ?stop_when
      ?on_obs ?record_trace ?stutter_limit ?telemetry ~daemon ~workload ~steps
      h =
    fst
      (run_with_states ?seed ?init ?init_states ?check_locality ?packed
         ?faults ?stop_when ?on_obs ?record_trace ?stutter_limit ?telemetry
         ~daemon ~workload ~steps h)
end
