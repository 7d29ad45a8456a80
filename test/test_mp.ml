(* The message-passing substrate: channel discipline, scheduler fairness,
   locality, determinism, fault injection. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
module X = Snapcc_experiments.Algos

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module E = Snapcc_mp.Mp_engine.Make (X.Cc2)

let directed_links h =
  List.fold_left ( + ) 0 (List.init (H.n h) (H.graph_degree h))

let test_coalescing_channels () =
  let h = Families.fig1 () in
  let eng = E.create ~seed:1 h in
  let w = Snapcc_workload.Workload.always_requesting h in
  for _ = 1 to 2_000 do
    let inputs = Snapcc_workload.Workload.inputs w (E.obs eng) in
    ignore (E.step eng ~inputs)
  done;
  (* links hold at most the latest snapshot each *)
  check "bounded channels" true (E.in_flight eng <= directed_links h);
  check "messages flowed" true (E.messages_delivered eng > 100);
  check "sends counted" true (E.messages_sent eng >= E.messages_delivered eng)

let test_scheduler_fairness () =
  (* even with a delivery-heavy bias, every process is activated and every
     link keeps delivering *)
  let h = Families.path 5 in
  let eng = E.create ~seed:3 ~deliver_bias:0.9 h in
  let activated = Array.make (H.n h) 0 in
  let delivered = Array.make (H.n h) 0 in
  let w = Snapcc_workload.Workload.always_requesting h in
  for _ = 1 to 4_000 do
    let inputs = Snapcc_workload.Workload.inputs w (E.obs eng) in
    match E.step eng ~inputs with
    | E.Activated (p, _) -> activated.(p) <- activated.(p) + 1
    | E.Delivered (p, _) -> delivered.(p) <- delivered.(p) + 1
  done;
  Array.iteri
    (fun p c -> check (Printf.sprintf "process %d activated" p) true (c > 10))
    activated;
  Array.iteri
    (fun p c -> check (Printf.sprintf "process %d received" p) true (c > 10))
    delivered;
  check_int "steps counted" 4_000 (E.steps_taken eng)

let test_determinism () =
  let h = Families.fig1 () in
  let run () =
    let eng = E.create ~seed:11 ~init:`Random h in
    let w = Snapcc_workload.Workload.always_requesting h in
    for _ = 1 to 3_000 do
      let inputs = Snapcc_workload.Workload.inputs w (E.obs eng) in
      ignore (E.step eng ~inputs)
    done;
    (E.messages_delivered eng, E.messages_sent eng,
     Array.map (fun (o : Obs.t) -> o.Obs.status) (E.obs eng))
  in
  check "same seed, same run" true (run () = run ())

let test_corrupt () =
  let h = Families.fig1 () in
  let eng = E.create ~seed:5 h in
  let before = E.obs eng in
  E.corrupt eng ~victims:(List.init (H.n h) Fun.id);
  let after = E.obs eng in
  check "corruption visible" true
    (Array.exists2 (fun a b -> not (Obs.equal a b)) before after)

let test_mp_cc2_serves_everyone () =
  let h = Families.fig1 () in
  let eng = E.create ~seed:7 ~init:`Random h in
  let w = Snapcc_workload.Workload.always_requesting h in
  let spec = Snapcc_analysis.Spec.create h ~initial:(E.obs eng) in
  let before = ref (E.obs eng) in
  for i = 0 to 29_999 do
    let inputs = Snapcc_workload.Workload.inputs w !before in
    ignore (E.step eng ~inputs);
    let after = E.obs eng in
    Snapcc_analysis.Spec.on_step spec ~step:i
      ~request_out:inputs.Model.request_out ~before:!before ~after;
    Snapcc_workload.Workload.observe w ~step:i after;
    before := after
  done;
  let parts = Snapcc_analysis.Spec.participations spec in
  Array.iteri
    (fun p c ->
      check (Printf.sprintf "professor %d served over message passing" (H.id h p))
        true (c > 0))
    parts;
  (* exclusion and synchronization must hold even over stale views *)
  List.iter
    (fun (v : Snapcc_analysis.Spec.violation) ->
      if v.Snapcc_analysis.Spec.rule = "exclusion"
         || v.Snapcc_analysis.Spec.rule = "synchronization"
      then
        Alcotest.failf "unexpected %s violation: %s" v.Snapcc_analysis.Spec.rule
          v.Snapcc_analysis.Spec.detail)
    (Snapcc_analysis.Spec.violations spec)

let test_max_staleness_grows () =
  let h = Families.fig1 () in
  let eng = E.create ~seed:9 ~deliver_bias:0.2 h in
  let w = Snapcc_workload.Workload.always_requesting h in
  for _ = 1 to 2_000 do
    let inputs = Snapcc_workload.Workload.inputs w (E.obs eng) in
    ignore (E.step eng ~inputs)
  done;
  check "runs are genuinely asynchronous" true (E.max_staleness eng > 5)

(* ---- the cached observation vector ---- *)

module E1 = Snapcc_mp.Mp_engine.Make (X.Cc1)

(* [obs] is a copy of a cache refreshed only when a core changes: it must
   equal a fresh projection of the true cores after every step and after
   every corruption, and be a fresh array each time *)
module Obs_cache (A : Model.ALGO) = struct
  module E = Snapcc_mp.Mp_engine.Make (A)

  let check topo =
    let h = Families.by_name topo in
    let eng = E.create ~seed:4 ~init:`Random h in
    let agrees () =
      Array.for_all2 Obs.equal (E.obs eng)
        (Array.init (H.n h) (A.observe h (E.states eng)))
    in
    let w = Snapcc_workload.Workload.always_requesting h in
    for i = 1 to 3_000 do
      if i mod 1_000 = 0 then begin
        E.corrupt eng ~victims:[ 0; H.n h - 1 ];
        check (topo ^ ": obs after corrupt") true (agrees ())
      end;
      ignore (E.step eng ~inputs:(Snapcc_workload.Workload.inputs w (E.obs eng)));
      check (topo ^ ": obs after step") true (agrees ());
      let a = E.obs eng in
      check "a fresh array" true (a != E.obs eng);
      Snapcc_workload.Workload.observe w ~step:i a
    done
end

let test_obs_cache () =
  let module C1 = Obs_cache (X.Cc1) in
  let module C2 = Obs_cache (X.Cc2) in
  List.iter (fun topo -> C1.check topo; C2.check topo) [ "ring9"; "fig1" ]

(* ---- stamp-based ageing vs the per-step ageing model ---- *)

module Sem = Snapcc_mp.Mp_semantics

(* The scheduler as it was specified before step stamps: every step ages
   every cache entry and activation counter and raises the staleness
   watermark; the decision takes the pending links as a descending
   lexicographic list. *)
module Ageing = struct
  type t = {
    n : int;
    rng : Random.State.t;
    bias : float;
    idle_for : int array;
    cache_age : int array array;
    mutable worst : int;
    mutable forced : int;
  }

  let create ~bias ~seed h =
    let n = H.n h in
    { n; rng = Random.State.make [| seed; n; 0x3b |]; bias;
      idle_for = Array.make n 0;
      cache_age = Array.init n (fun p -> Array.make (H.graph_degree h p) 0);
      worst = 0; forced = 0 }

  let begin_step t =
    Array.iter
      (fun row ->
        Array.iteri
          (fun i a ->
            row.(i) <- a + 1;
            t.worst <- max t.worst (a + 1))
          row)
      t.cache_age;
    Array.iteri (fun p a -> t.idle_for.(p) <- a + 1) t.idle_for

  let decide t ~pending =
    let bound = 16 * t.n in
    let starving = ref None in
    for p = t.n - 1 downto 0 do
      if t.idle_for.(p) >= bound then starving := Some p
    done;
    match !starving with
    | Some p ->
      t.forced <- t.forced + 1;
      Sem.Activate p
    | None -> (
      match List.find_opt (fun (p, i) -> t.cache_age.(p).(i) >= bound) pending with
      | Some (p, i) ->
        t.forced <- t.forced + 1;
        Sem.Deliver (p, i)
      | None ->
        if pending <> [] && Random.State.float t.rng 1.0 < t.bias then
          let p, i = List.nth pending (Random.State.int t.rng (List.length pending)) in
          Sem.Deliver (p, i)
        else Sem.Activate (Random.State.int t.rng t.n))

  let on_activated t p = t.idle_for.(p) <- 0
  let on_cache_refresh t ~dst ~slot = t.cache_age.(dst).(slot) <- 0
end

let test_stamps_match_ageing () =
  List.iter
    (fun (topo, bias, density, seed) ->
      let h = Families.by_name topo in
      let n = H.n h in
      let sem = Sem.create ~deliver_bias:bias ~seed h in
      let old = Ageing.create ~bias ~seed h in
      let sched = Random.State.make [| seed; 17 |] in
      let masks = Array.make n 0 in
      for step = 1 to 20_000 do
        Sem.begin_step sem;
        Ageing.begin_step old;
        (* a random pending set, as a mask row and as the list the old
           scheduler took (descending lexicographic) *)
        let count = ref 0 and pending = ref [] in
        for p = 0 to n - 1 do
          masks.(p) <- 0;
          for i = 0 to H.graph_degree h p - 1 do
            if Random.State.float sched 1.0 < density then begin
              masks.(p) <- masks.(p) lor (1 lsl i);
              incr count;
              pending := (p, i) :: !pending
            end
          done
        done;
        let d = Sem.decide sem ~masks ~count:!count in
        let d' = Ageing.decide old ~pending:!pending in
        if d <> d' then Alcotest.failf "%s bias %.2f: decisions differ at step %d" topo bias step;
        (match d with
         | Sem.Activate p ->
           Sem.on_activated sem p;
           Ageing.on_activated old p
         | Sem.Deliver (p, i) ->
           Sem.on_cache_refresh sem ~dst:p ~slot:i;
           Ageing.on_cache_refresh old ~dst:p ~slot:i);
        if step mod 97 = 0 || step = 20_000 then
          check_int (Printf.sprintf "%s staleness at %d" topo step) old.Ageing.worst
            (Sem.max_staleness sem)
      done;
      check (topo ^ ": forced events exercised") true (old.Ageing.forced > 0))
    [ ("fig1", 0.5, 0.3, 1); ("ring9", 0.97, 0.2, 2); ("ring9", 0.0, 0.05, 3);
      ("path5", 0.9, 0.5, 4); ("single2", 0.1, 0.02, 5) ]

(* ---- monitors: reused vs freshly copied observation arrays ---- *)

module Spec = Snapcc_analysis.Spec
module Metrics = Snapcc_analysis.Metrics
module Tele = Snapcc_telemetry

(* Spec and Metrics reuse the meeting vector of the previous [after] when
   [before] is physically that array; fed a copy of every array instead,
   they must recompute and reach the same violations, summary and event
   stream. *)
let test_monitors_reuse () =
  let h = Families.by_name "ring9" in
  let eng = E1.create ~seed:6 ~init:`Random h in
  let w = Snapcc_workload.Workload.always_requesting h in
  let steps = 4_000 and fault_at = 2_000 in
  (* the run's transitions: [befores.(i + 1) == afters.(i)] except at the
     fault, where [before] is the corrupted configuration *)
  let initial = E1.obs eng in
  let befores = Array.make steps [||] and afters = Array.make steps [||] in
  let outs = Array.make steps (fun _ -> false) in
  let cur = ref initial in
  for i = 0 to steps - 1 do
    if i = fault_at then begin
      E1.corrupt eng ~victims:(List.init (H.n h) Fun.id);
      cur := E1.obs eng
    end;
    befores.(i) <- !cur;
    let inputs = Snapcc_workload.Workload.inputs w !cur in
    ignore (E1.step eng ~inputs);
    outs.(i) <- inputs.Model.request_out;
    afters.(i) <- E1.obs eng;
    cur := afters.(i);
    Snapcc_workload.Workload.observe w ~step:i !cur
  done;
  let feed ~copy =
    let buf = Buffer.create 4096 in
    let hub = Tele.Hub.create () in
    Tele.Hub.add_sink hub (Tele.Sink.jsonl (Buffer.add_string buf));
    let give a = if copy then Array.copy a else a in
    let spec = Spec.create ~telemetry:hub h ~initial:(give initial) in
    let metrics = Metrics.create ~telemetry:hub h ~initial:(give initial) in
    for i = 0 to steps - 1 do
      if i = fault_at then Spec.on_fault spec (give befores.(i));
      let before = give befores.(i) and after = give afters.(i) in
      Spec.on_step spec ~step:i ~request_out:outs.(i) ~before ~after;
      Metrics.on_step metrics ~step:i ~round:0 ~before ~after
    done;
    Tele.Hub.close hub;
    (Spec.violations spec, Metrics.finish metrics ~step:steps ~round:0, Buffer.contents buf)
  in
  let v1, s1, ev1 = feed ~copy:false in
  let v2, s2, ev2 = feed ~copy:true in
  check "convenes happened" true (s1.Metrics.convenes > 10);
  check "same violations" true (v1 = v2);
  check "same summary" true (s1 = s2);
  check "same events" true (String.equal ev1 ev2);
  (* the shared meeting vectors against [Obs.meets], on the run's chained
     transitions and on unchained pairs, whose [before] is not the
     previous [after] and must be projected again *)
  let diff = Snapcc_analysis.Meeting_diff.create h ~initial in
  let agree before after =
    Snapcc_analysis.Meeting_diff.advance diff ~before ~after;
    for e = 0 to H.m h - 1 do
      if (Snapcc_analysis.Meeting_diff.before diff).(e) <> Obs.meets h before e
         || (Snapcc_analysis.Meeting_diff.after diff).(e) <> Obs.meets h after e
      then Alcotest.fail "meeting vector differs from Obs.meets"
    done
  in
  Array.iteri (fun i before -> agree before afters.(i)) befores;
  let rng = Random.State.make [| 8 |] in
  let last = ref afters.(steps - 1) in
  for _ = 1 to 2_000 do
    let before = if Random.State.bool rng then !last else afters.(Random.State.int rng steps) in
    let after = afters.(Random.State.int rng steps) in
    agree before after;
    last := after
  done

(* ---- the packed mirror is dropped when it serves no process ---- *)

let test_mirror_dropped () =
  let h = Families.by_name "ring9" in
  let hooks ~built =
    { Model.pk_entry = (fun ~mode:_ ~proc:_ _ -> -2);
      pk_intern = (fun _ _ -> 0);
      pk_support = (fun _ -> Array.init (H.n h) Fun.id);
      pk_built = (fun _ -> built) }
  in
  List.iter
    (fun built ->
      let ep = E1.create ~seed:2 ~packed:(hooks ~built) h in
      let ec = E1.create ~seed:2 h in
      check "served by closures" true (E1.engine_kind ep = `Closure);
      check "says why" true
        (E1.dropped ep = Some "no stored table reads only its process's closed neighborhood");
      check "no reason without hooks" true (E1.dropped ec = None);
      let w = Snapcc_workload.Workload.always_requesting h in
      for _ = 1 to 500 do
        let inputs = Snapcc_workload.Workload.inputs w (E1.obs ec) in
        check "same event" true (E1.step ec ~inputs = E1.step ep ~inputs)
      done)
    [ true; false ]

let suite =
  [ ( "message-passing",
      [ Alcotest.test_case "coalescing channels" `Quick test_coalescing_channels;
        Alcotest.test_case "scheduler progresses" `Quick test_scheduler_fairness;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "fault injection" `Quick test_corrupt;
        Alcotest.test_case "CC2/mp fairness + safety core" `Slow
          test_mp_cc2_serves_everyone;
        Alcotest.test_case "staleness exercised" `Quick test_max_staleness_grows;
        Alcotest.test_case "cached obs = fresh projection" `Quick test_obs_cache;
        Alcotest.test_case "step stamps = per-step ageing" `Quick
          test_stamps_match_ageing;
        Alcotest.test_case "monitors: reused = copied arrays" `Quick
          test_monitors_reuse;
        Alcotest.test_case "unserving mirror dropped at create" `Quick
          test_mirror_dropped;
      ] );
  ]
