type ring_state = {
  capacity : int;
  mutable data : Event.stamped array;  (* grows up to [capacity] *)
  mutable len : int;  (* stored events *)
  mutable head : int;  (* insertion point once saturated *)
}

type kind =
  | Jsonl of (string -> unit)
  | Ring of ring_state
  | Catapult of { write : string -> unit; mutable first : bool }
  | Custom of { emit : Event.stamped -> unit; close : unit -> unit }

type t = { kind : kind; mutable closed : bool }

let jsonl write = { kind = Jsonl write; closed = false }

let custom ~emit ~close = { kind = Custom { emit; close }; closed = false }

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
  { kind =
      Ring { capacity; data = [||]; len = 0; head = 0 };
    closed = false }

let catapult write =
  write "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  { kind = Catapult { write; first = true }; closed = false }

let ring_events t =
  match t.kind with
  | Ring r ->
    List.init r.len (fun i ->
        (* oldest first: once saturated, [head] is the oldest slot *)
        if r.len < r.capacity then r.data.(i)
        else r.data.((r.head + i) mod r.capacity))
  | Jsonl _ | Catapult _ | Custom _ -> []

let ring_push r (s : Event.stamped) =
  if r.len < r.capacity then begin
    if r.len = Array.length r.data then begin
      let cap = min r.capacity (max 16 (2 * Array.length r.data)) in
      let bigger = Array.make cap s in
      Array.blit r.data 0 bigger 0 r.len;
      r.data <- bigger
    end;
    r.data.(r.len) <- s;
    r.len <- r.len + 1;
    if r.len = r.capacity then r.head <- 0
  end
  else begin
    r.data.(r.head) <- s;
    r.head <- (r.head + 1) mod r.capacity
  end

(* JSONL bodies are deterministic: seq + the logical event fields, no
   timestamp (see the determinism test). *)
let jsonl_line (s : Event.stamped) =
  match Event.to_json s.ev with
  | Json.Obj fields ->
    Json.to_string (Json.Obj (("seq", Json.Int s.seq) :: fields)) ^ "\n"
  | other -> Json.to_string other ^ "\n"

(* One Chrome trace event, rendered immediately. *)
let catapult_json (s : Event.stamped) =
  let base ?(args = []) ~name ~ph ~tid extra =
    Json.Obj
      ([ ("name", Json.String name);
         ("ph", Json.String ph);
         ("ts", Json.Int s.t_us);
         ("pid", Json.Int 0);
         ("tid", Json.Int tid) ]
      @ extra
      @ (if args = [] then [] else [ ("args", Json.Obj args) ]))
  in
  let instant ?(tid = 0) ?(args = []) name =
    base ~name ~ph:"i" ~tid ~args [ ("s", Json.String "t") ]
  in
  match s.ev with
  | Event.Convene { eid; step; _ } ->
    Some
      (base
         ~name:(Printf.sprintf "committee e%d" eid)
         ~ph:"B" ~tid:(1000 + eid)
         ~args:[ ("step", Json.Int step) ]
         [])
  | Event.Terminate { eid; step; _ } ->
    Some
      (base
         ~name:(Printf.sprintf "committee e%d" eid)
         ~ph:"E" ~tid:(1000 + eid)
         ~args:[ ("step", Json.Int step) ]
         [])
  | Event.Step { meetings; step; _ } ->
    Some
      (base ~name:"concurrency" ~ph:"C" ~tid:0
         ~args:
           [ ("meetings", Json.Int (List.length meetings));
             ("step", Json.Int step) ]
         [])
  | Event.Action { p; label; step } ->
    Some (instant ~tid:p ~args:[ ("step", Json.Int step) ] label)
  | Event.Fault { victims; step } ->
    Some
      (base ~name:"fault" ~ph:"i" ~tid:0
         ~args:
           [ ("victims", Json.List (List.map (fun v -> Json.Int v) victims));
             ("step", Json.Int step) ]
         [ ("s", Json.String "g") ])
  | Event.Verdict { rule; step; _ } ->
    Some
      (base ~name:("violation: " ^ rule) ~ph:"i" ~tid:0
         ~args:[ ("step", Json.Int step) ]
         [ ("s", Json.String "g") ])
  | Event.Token_handoff { p; step } ->
    Some (instant ~tid:p ~args:[ ("step", Json.Int step) ] "token")
  | Event.Recover { eid; step } ->
    Some
      (base ~name:"recovered" ~ph:"i" ~tid:0
         ~args:[ ("eid", Json.Int eid); ("step", Json.Int step) ]
         [ ("s", Json.String "g") ])
  | Event.Net_delivered { src; dst; bytes; latency_us; step } ->
    Some
      (instant ~tid:dst
         ~args:
           [ ("src", Json.Int src);
             ("bytes", Json.Int bytes);
             ("latency_us", Json.Int latency_us);
             ("step", Json.Int step) ]
         "net recv")
  | Event.Net_dropped { src; dst; reason; step } ->
    Some
      (base ~name:("net drop: " ^ reason) ~ph:"i" ~tid:dst
         ~args:[ ("src", Json.Int src); ("step", Json.Int step) ]
         [ ("s", Json.String "t") ])
  | Event.Run_start _ | Event.Engine _ | Event.Run_end _ | Event.Wait_open _
  | Event.Wait_close _ | Event.Mc_frontier _ | Event.Mp_activated _
  | Event.Mp_delivered _ | Event.Net_sent _ | Event.Clock _
  | Event.Smc_trial _ ->
    None

let emit t s =
  if not t.closed then
    match t.kind with
    | Jsonl write -> write (jsonl_line s)
    | Ring r -> ring_push r s
    | Catapult c ->
      (match catapult_json s with
       | None -> ()
       | Some j ->
         if c.first then c.first <- false else c.write ",";
         c.write (Json.to_string j))
    | Custom c -> c.emit s

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.kind with
    | Catapult c -> c.write "]}"
    | Custom c -> c.close ()
    | Jsonl _ | Ring _ -> ()
  end
