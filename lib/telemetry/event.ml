type t =
  | Run_start of {
      algo : string;
      daemon : string;
      workload : string;
      seed : int;
      n : int;
      m : int;
      topo : string;
    }
  | Engine of { path : string; reason : string }
  | Step of {
      step : int;
      round : int;
      selected : int list;
      neutralized : int list;
      meetings : int list;
    }
  | Action of { step : int; p : int; label : string }
  | Convene of { step : int; round : int; eid : int }
  | Terminate of { step : int; round : int; eid : int }
  | Wait_open of { step : int; round : int; p : int }
  | Wait_close of {
      step : int;
      round : int;
      p : int;
      waited_steps : int;
      waited_rounds : int;
    }
  | Verdict of { step : int; rule : string; detail : string }
  | Token_handoff of { step : int; p : int }
  | Fault of { step : int; victims : int list }
  | Recover of { step : int; eid : int }
  | Mc_frontier of { configs : int; transitions : int }
  | Mp_activated of { step : int; p : int; label : string option }
  | Mp_delivered of { step : int; dst : int; src : int }
  | Net_sent of { step : int; src : int; dst : int; bytes : int }
  | Net_delivered of {
      step : int;
      src : int;
      dst : int;
      bytes : int;
      latency_us : int;
    }
  | Net_dropped of { step : int; src : int; dst : int; reason : string }
  | Clock of {
      step : int;
      p : int;
      k : int;
      clock : int list;
      obs_code : int;
      disc : int;
    }
  | Smc_trial of {
      trial : int;
      seed : int;
      stabilized : int option;
      convenes : int;
      violations : int;
      deadlocked : bool;
      steps : int;
    }
  | Run_end of { outcome : string; steps : int; rounds : int }

type stamped = { seq : int; t_us : int; ev : t }

let clock_init = 0
let clock_activation = 1
let clock_delivery = 2
let clock_corruption = 3

let kind = function
  | Run_start _ -> "run_start"
  | Engine _ -> "engine"
  | Step _ -> "step"
  | Action _ -> "action"
  | Convene _ -> "convene"
  | Terminate _ -> "terminate"
  | Wait_open _ -> "wait_open"
  | Wait_close _ -> "wait_close"
  | Verdict _ -> "verdict"
  | Token_handoff _ -> "token_handoff"
  | Fault _ -> "fault"
  | Recover _ -> "recover"
  | Mc_frontier _ -> "mc_frontier"
  | Mp_activated _ -> "mp_activated"
  | Mp_delivered _ -> "mp_delivered"
  | Net_sent _ -> "net_sent"
  | Net_delivered _ -> "net_delivered"
  | Net_dropped _ -> "net_dropped"
  | Clock _ -> "clock"
  | Smc_trial _ -> "smc_trial"
  | Run_end _ -> "run_end"

(* Every event body is a pure function of the seed except [net_delivered],
   whose [latency_us] is measured wall-clock; filtering on this predicate
   recovers the deterministic (byte-reproducible) subset of a networked
   trace. *)
let logical = function Net_delivered _ -> false | _ -> true

let ints l = Json.List (List.map (fun i -> Json.Int i) l)

let to_json ev =
  let fields =
    match ev with
    | Run_start { algo; daemon; workload; seed; n; m; topo } ->
      [ ("algo", Json.String algo);
        ("daemon", Json.String daemon);
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("n", Json.Int n);
        ("m", Json.Int m);
        ("topo", Json.String topo) ]
    | Engine { path; reason } ->
      [ ("path", Json.String path); ("reason", Json.String reason) ]
    | Step { step; round; selected; neutralized; meetings } ->
      [ ("step", Json.Int step);
        ("round", Json.Int round);
        ("selected", ints selected);
        ("neutralized", ints neutralized);
        ("meetings", ints meetings) ]
    | Action { step; p; label } ->
      [ ("step", Json.Int step); ("p", Json.Int p); ("label", Json.String label) ]
    | Convene { step; round; eid } | Terminate { step; round; eid } ->
      [ ("step", Json.Int step); ("round", Json.Int round); ("eid", Json.Int eid) ]
    | Wait_open { step; round; p } ->
      [ ("step", Json.Int step); ("round", Json.Int round); ("p", Json.Int p) ]
    | Wait_close { step; round; p; waited_steps; waited_rounds } ->
      [ ("step", Json.Int step);
        ("round", Json.Int round);
        ("p", Json.Int p);
        ("waited_steps", Json.Int waited_steps);
        ("waited_rounds", Json.Int waited_rounds) ]
    | Verdict { step; rule; detail } ->
      [ ("step", Json.Int step);
        ("rule", Json.String rule);
        ("detail", Json.String detail) ]
    | Token_handoff { step; p } -> [ ("step", Json.Int step); ("p", Json.Int p) ]
    | Fault { step; victims } ->
      [ ("step", Json.Int step); ("victims", ints victims) ]
    | Recover { step; eid } -> [ ("step", Json.Int step); ("eid", Json.Int eid) ]
    | Mc_frontier { configs; transitions } ->
      [ ("configs", Json.Int configs); ("transitions", Json.Int transitions) ]
    | Mp_activated { step; p; label } ->
      [ ("step", Json.Int step);
        ("p", Json.Int p);
        ("label",
         match label with Some l -> Json.String l | None -> Json.Null) ]
    | Mp_delivered { step; dst; src } ->
      [ ("step", Json.Int step); ("dst", Json.Int dst); ("src", Json.Int src) ]
    | Net_sent { step; src; dst; bytes } ->
      [ ("step", Json.Int step);
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("bytes", Json.Int bytes) ]
    | Net_delivered { step; src; dst; bytes; latency_us } ->
      [ ("step", Json.Int step);
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("bytes", Json.Int bytes);
        ("latency_us", Json.Int latency_us) ]
    | Net_dropped { step; src; dst; reason } ->
      [ ("step", Json.Int step);
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("reason", Json.String reason) ]
    | Clock { step; p; k; clock; obs_code; disc } ->
      [ ("step", Json.Int step);
        ("p", Json.Int p);
        ("k", Json.Int k);
        ("clock", ints clock);
        ("obs_code", Json.Int obs_code);
        ("disc", Json.Int disc) ]
    | Smc_trial { trial; seed; stabilized; convenes; violations; deadlocked;
                  steps } ->
      [ ("trial", Json.Int trial);
        ("seed", Json.Int seed);
        ("stabilized",
         match stabilized with Some s -> Json.Int s | None -> Json.Null);
        ("convenes", Json.Int convenes);
        ("violations", Json.Int violations);
        ("deadlocked", Json.Bool deadlocked);
        ("steps", Json.Int steps) ]
    | Run_end { outcome; steps; rounds } ->
      [ ("outcome", Json.String outcome);
        ("steps", Json.Int steps);
        ("rounds", Json.Int rounds) ]
  in
  Json.Obj (("ev", Json.String (kind ev)) :: fields)

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let int name = field name Json.to_int in
  let str name = field name Json.to_str in
  let int_list name =
    field name (fun v ->
        Option.bind (Json.to_list v) (fun l ->
            let ints = List.filter_map Json.to_int l in
            if List.length ints = List.length l then Some ints else None))
  in
  let* k = str "ev" in
  match k with
  | "run_start" ->
    let* algo = str "algo" in
    let* daemon = str "daemon" in
    let* workload = str "workload" in
    let* seed = int "seed" in
    let* n = int "n" in
    let* m = int "m" in
    let topo =
      match Json.member "topo" j with Some (Json.String s) -> s | _ -> ""
    in
    Ok (Run_start { algo; daemon; workload; seed; n; m; topo })
  | "engine" ->
    let* path = str "path" in
    let* reason = str "reason" in
    Ok (Engine { path; reason })
  | "step" ->
    let* step = int "step" in
    let* round = int "round" in
    let* selected = int_list "selected" in
    let* neutralized = int_list "neutralized" in
    let* meetings = int_list "meetings" in
    Ok (Step { step; round; selected; neutralized; meetings })
  | "action" ->
    let* step = int "step" in
    let* p = int "p" in
    let* label = str "label" in
    Ok (Action { step; p; label })
  | "convene" | "terminate" ->
    let* step = int "step" in
    let* round = int "round" in
    let* eid = int "eid" in
    Ok
      (if k = "convene" then Convene { step; round; eid }
       else Terminate { step; round; eid })
  | "wait_open" ->
    let* step = int "step" in
    let* round = int "round" in
    let* p = int "p" in
    Ok (Wait_open { step; round; p })
  | "wait_close" ->
    let* step = int "step" in
    let* round = int "round" in
    let* p = int "p" in
    let* waited_steps = int "waited_steps" in
    let* waited_rounds = int "waited_rounds" in
    Ok (Wait_close { step; round; p; waited_steps; waited_rounds })
  | "verdict" ->
    let* step = int "step" in
    let* rule = str "rule" in
    let* detail = str "detail" in
    Ok (Verdict { step; rule; detail })
  | "token_handoff" ->
    let* step = int "step" in
    let* p = int "p" in
    Ok (Token_handoff { step; p })
  | "fault" ->
    let* step = int "step" in
    let* victims = int_list "victims" in
    Ok (Fault { step; victims })
  | "recover" ->
    let* step = int "step" in
    let* eid = int "eid" in
    Ok (Recover { step; eid })
  | "mc_frontier" ->
    let* configs = int "configs" in
    let* transitions = int "transitions" in
    Ok (Mc_frontier { configs; transitions })
  | "mp_activated" ->
    let* step = int "step" in
    let* p = int "p" in
    let label =
      match Json.member "label" j with
      | Some (Json.String l) -> Some l
      | _ -> None
    in
    Ok (Mp_activated { step; p; label })
  | "mp_delivered" ->
    let* step = int "step" in
    let* dst = int "dst" in
    let* src = int "src" in
    Ok (Mp_delivered { step; dst; src })
  | "net_sent" ->
    let* step = int "step" in
    let* src = int "src" in
    let* dst = int "dst" in
    let* bytes = int "bytes" in
    Ok (Net_sent { step; src; dst; bytes })
  | "net_delivered" ->
    let* step = int "step" in
    let* src = int "src" in
    let* dst = int "dst" in
    let* bytes = int "bytes" in
    let* latency_us = int "latency_us" in
    Ok (Net_delivered { step; src; dst; bytes; latency_us })
  | "net_dropped" ->
    let* step = int "step" in
    let* src = int "src" in
    let* dst = int "dst" in
    let* reason = str "reason" in
    Ok (Net_dropped { step; src; dst; reason })
  | "clock" ->
    let* step = int "step" in
    let* p = int "p" in
    let* k = int "k" in
    let* clock = int_list "clock" in
    let* obs_code = int "obs_code" in
    let* disc = int "disc" in
    Ok (Clock { step; p; k; clock; obs_code; disc })
  | "smc_trial" ->
    let* trial = int "trial" in
    let* seed = int "seed" in
    let stabilized =
      match Json.member "stabilized" j with
      | Some (Json.Int s) -> Some s
      | _ -> None
    in
    let* convenes = int "convenes" in
    let* violations = int "violations" in
    let* deadlocked =
      field "deadlocked" (function Json.Bool b -> Some b | _ -> None)
    in
    let* steps = int "steps" in
    Ok
      (Smc_trial
         { trial; seed; stabilized; convenes; violations; deadlocked; steps })
  | "run_end" ->
    let* outcome = str "outcome" in
    let* steps = int "steps" in
    let* rounds = int "rounds" in
    Ok (Run_end { outcome; steps; rounds })
  | k -> Error (Printf.sprintf "unknown event kind %S" k)
