type meta = {
  algo : string;
  daemon : string;
  workload : string;
  seed : int;
  n : int;
  m : int;
}

type summary = {
  steps : int;
  rounds : int;
  convenes : int;
  terminations : int;
  actions : int;
  mean_concurrency : float;
  max_concurrency : int;
  waits_completed : int;
  wait_mean : float;
  wait_p50 : int;
  wait_p90 : int;
  wait_p95 : int;
  wait_max : int;
  violations : int;
  faults : int;
  token_handoffs : int;
  latency_histogram : (string * int) list;
  outcome : string option;
  engine : (string * string) option;
}

(* nearest-rank percentile, same semantics as
   [Snapcc_analysis.Metrics.percentile] *)
let percentile q = function
  | [] -> 0
  | l ->
    let sorted = List.sort compare l in
    let n = List.length sorted in
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let of_events events =
  let meta = ref None in
  let step_events = ref 0 in
  let max_round = ref 0 in
  let convenes = ref 0 in
  let terminations = ref 0 in
  let actions = ref 0 in
  let concurrency_sum = ref 0 in
  let max_concurrency = ref 0 in
  let rev_waits = ref [] in
  let violations = ref 0 in
  let faults = ref 0 in
  let tokens = ref 0 in
  let rev_latencies = ref [] in
  let run_end = ref None in
  let engine = ref None in
  List.iter
    (fun (ev : Event.t) ->
      match ev with
      | Event.Run_start { algo; daemon; workload; seed; n; m; topo = _ } ->
        if !meta = None then
          meta := Some { algo; daemon; workload; seed; n; m }
      | Event.Engine { path; reason } ->
        if !engine = None then engine := Some (path, reason)
      | Event.Step { round; meetings; _ } ->
        incr step_events;
        if round > !max_round then max_round := round;
        let k = List.length meetings in
        concurrency_sum := !concurrency_sum + k;
        if k > !max_concurrency then max_concurrency := k
      | Event.Action _ -> incr actions
      | Event.Convene _ -> incr convenes
      | Event.Terminate _ -> incr terminations
      | Event.Wait_open _ -> ()
      | Event.Wait_close { waited_steps; _ } ->
        rev_waits := waited_steps :: !rev_waits
      | Event.Verdict _ -> incr violations
      | Event.Fault _ -> incr faults
      | Event.Token_handoff _ -> incr tokens
      | Event.Net_delivered { latency_us; _ } ->
        rev_latencies := latency_us :: !rev_latencies
      | Event.Recover _ | Event.Mc_frontier _ | Event.Mp_activated _
      | Event.Mp_delivered _ | Event.Net_sent _ | Event.Net_dropped _
      | Event.Clock _ | Event.Smc_trial _ ->
        ()
      | Event.Run_end { outcome; steps; rounds } ->
        run_end := Some (outcome, steps, rounds))
    events;
  let waits = List.rev !rev_waits in
  let steps, rounds, outcome =
    match !run_end with
    | Some (outcome, steps, rounds) -> (steps, rounds, Some outcome)
    | None -> (!step_events, !max_round, None)
  in
  ( !meta,
    {
      steps;
      rounds;
      convenes = !convenes;
      terminations = !terminations;
      actions = !actions;
      mean_concurrency =
        (if !step_events = 0 then 0.
         else float_of_int !concurrency_sum /. float_of_int !step_events);
      max_concurrency = !max_concurrency;
      waits_completed = List.length waits;
      wait_mean =
        (match waits with
         | [] -> 0.
         | l ->
           float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l));
      wait_p50 = percentile 0.50 waits;
      wait_p90 = percentile 0.90 waits;
      wait_p95 = percentile 0.95 waits;
      wait_max = List.fold_left max 0 waits;
      violations = !violations;
      faults = !faults;
      token_handoffs = !tokens;
      latency_histogram =
        (if !rev_latencies = [] then []
         else Registry.bucket_counts (List.rev !rev_latencies));
      outcome;
      engine = !engine;
    } )

let to_json ?meta s =
  let meta_fields =
    match meta with
    | None -> []
    | Some m ->
      [ ( "meta",
          Json.Obj
            [ ("algo", Json.String m.algo);
              ("daemon", Json.String m.daemon);
              ("workload", Json.String m.workload);
              ("seed", Json.Int m.seed);
              ("n", Json.Int m.n);
              ("m", Json.Int m.m) ] ) ]
  in
  (* the latency histogram appears only when the trace carried deliveries,
     so summaries of non-networked runs are byte-identical to before *)
  let latency_fields =
    match s.latency_histogram with
    | [] -> []
    | buckets ->
      [ ( "latency_histogram",
          Json.Obj (List.map (fun (l, c) -> (l, Json.Int c)) buckets) ) ]
  in
  let engine_fields =
    match s.engine with
    | None -> []
    | Some (path, reason) ->
      [ ("engine", Json.Obj [ ("path", Json.String path); ("reason", Json.String reason) ]) ]
  in
  Json.Obj
    (meta_fields
    @ engine_fields
    @ [ ( "summary",
          Json.Obj
            ([ ("steps", Json.Int s.steps);
               ("rounds", Json.Int s.rounds);
               ("convenes", Json.Int s.convenes);
               ("terminations", Json.Int s.terminations);
               ("actions", Json.Int s.actions);
               ("mean_concurrency", Json.Float s.mean_concurrency);
               ("max_concurrency", Json.Int s.max_concurrency);
               ( "waits",
                 Json.Obj
                   [ ("completed", Json.Int s.waits_completed);
                     ("mean_steps", Json.Float s.wait_mean);
                     ("p50_steps", Json.Int s.wait_p50);
                     ("p90_steps", Json.Int s.wait_p90);
                     ("p95_steps", Json.Int s.wait_p95);
                     ("max_steps", Json.Int s.wait_max) ] );
               ("violations", Json.Int s.violations);
               ("faults", Json.Int s.faults);
               ("token_handoffs", Json.Int s.token_handoffs) ]
            @ latency_fields
            @ [ ( "outcome",
                  match s.outcome with
                  | Some o -> Json.String o
                  | None -> Json.Null ) ]) ) ])

let events_of_jsonl lines =
  let rec parse acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" then parse acc (lineno + 1) rest
      else (
        match Json.of_string trimmed with
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        | Ok j -> (
          match Event.of_json j with
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
          | Ok ev -> parse (ev :: acc) (lineno + 1) rest))
  in
  parse [] 1 lines

let of_jsonl lines = Result.map of_events (events_of_jsonl lines)
