module H = Snapcc_hypergraph.Hypergraph

module Make (A : Model.ALGO) = struct
  type t = {
    h : H.t;
    states : A.state array;  (* updated in place, after all statements ran *)
    actions : A.state Model.action array;  (* index = code order; last = top priority *)
    daemon : Daemon.t;
    rng : Random.State.t;
    check_locality : bool;
    mutable step_no : int;
    mutable round_no : int;
    mutable round_pending : bool array option;
        (* processes from the round's initial enabled set still to activate
           or neutralize; [None] until the first step establishes it *)
    cont_enabled : int array;
    (* table-driven fast path: [ids] mirrors [states] as dense domain ids
       (of the canonicalized states) while [packed] is live *)
    mutable packed : A.state Model.packed option;
    ids : int array;
    (* incremental enabled set, per process: the last evaluation's
       priority action ([act], -1 = none), packed successor id ([succ], -1
       unless a table entry served it) and input mode ([mode], -1 =
       invalidated); [readers.(q)]: processes whose evaluation read [q]
       (stale entries only cost a re-evaluation); [stamp.(q) = gen] once
       the current evaluation registered [q]; [did.(p)]: [p]'s last step *)
    act : int array;
    succ : int array;
    mode : int array;
    readers : int list array;
    stamp : int array;
    mutable gen : int;
    did : int array;
    (* hot-path profiling: monotone counters, no wall-clock reads *)
    mutable prof_scan_hits : int;
    mutable prof_scan_fallbacks : int;
    mutable prof_guard_evals : int;
    mutable prof_applies : int;
    mutable prof_selects : int;
  }

  let create ?(seed = 0) ?(check_locality = false) ?(init = `Canonical)
      ?packed ~daemon h =
    let n = H.n h in
    let rng = Random.State.make [| seed; n; 0xcc |] in
    let states =
      match init with
      | `Canonical -> Array.init n (A.init h)
      | `Random -> Array.init n (A.random_init h rng)
      | `States s ->
        if Array.length s <> n then invalid_arg "Engine.create: bad state array";
        Array.copy s
    in
    let packed, ids =
      match packed with
      | None -> (None, [||])
      | Some pk -> (
        match Array.init n (fun p -> pk.Model.pk_intern p states.(p)) with
        | ids -> (Some pk, ids)
        | exception Failure _ -> (None, [||]))
    in
    {
      h;
      states;
      actions = Array.of_list (A.actions h);
      daemon;
      rng;
      check_locality;
      step_no = 0;
      round_no = 0;
      round_pending = None;
      cont_enabled = Array.make n 0;
      packed;
      ids;
      act = Array.make n (-1);
      succ = Array.make n (-1);
      mode = Array.make n (-1);
      readers = Array.make n [];
      stamp = Array.make n (-1);
      gen = 0;
      did = Array.make n (-1);
      prof_scan_hits = 0;
      prof_scan_fallbacks = 0;
      prof_guard_evals = 0;
      prof_applies = 0;
      prof_selects = 0;
    }

  let engine_kind t = if t.packed = None then `Closure else `Packed

  let hypergraph t = t.h
  let states t = Array.copy t.states
  let state t p = t.states.(p)

  (* Re-intern (part of) the mirror, dropping to closures for the rest of
     the run if the interner overflows its escapee headroom — states stay
     authoritative, so nothing is lost but speed. *)
  let reintern t ps =
    match t.packed with
    | None -> ()
    | Some pk -> (
      match List.iter (fun p -> t.ids.(p) <- pk.Model.pk_intern p t.states.(p)) ps with
      | () -> ()
      | exception Failure _ -> t.packed <- None)

  (* Invalidate the recorded readers of [q] and forget them: an invalidated
     entry is re-evaluated, re-registering its reads, before it is used. *)
  let invalidate_readers t q =
    List.iter (fun p -> t.mode.(p) <- -1) t.readers.(q);
    t.readers.(q) <- []

  let set_states t s =
    let n = H.n t.h in
    if Array.length s <> n then invalid_arg "Engine.set_states";
    Array.blit s 0 t.states 0 n;
    Array.fill t.mode 0 n (-1);
    Array.fill t.readers 0 n [];
    reintern t (List.init n Fun.id)

  let obs t = Array.init (H.n t.h) (A.observe t.h t.states)
  let steps_taken t = t.step_no
  let rounds t = t.round_no
  let rng t = t.rng

  let profile t =
    [ ("engine_scan_hits", t.prof_scan_hits);
      ("engine_scan_fallbacks", t.prof_scan_fallbacks);
      ("engine_guard_evals", t.prof_guard_evals);
      ("engine_applies", t.prof_applies);
      ("engine_selects", t.prof_selects) ]

  let check_local t p q =
    if q <> p && not (H.are_neighbors t.h p q) then
      failwith (Printf.sprintf "locality violation: process %d read state of %d" p q)

  let ctx_for t ~inputs p : A.state Model.ctx =
    let read =
      if t.check_locality then (fun q -> check_local t p q; t.states.(q))
      else Array.get t.states
    in
    Model.make_ctx t.h ~inputs ~read p

  let priority_action t ~inputs p =
    match Model.first_enabled t.actions (ctx_for t ~inputs p) with -1 -> None | i -> Some i

  let enabled t ~inputs =
    List.filter
      (fun p -> priority_action t ~inputs p <> None)
      (List.init (H.n t.h) Fun.id)

  let is_terminal t ~inputs = enabled t ~inputs = []

  let enabled_action t ~inputs p =
    Option.map (fun i -> t.actions.(i).Model.label) (priority_action t ~inputs p)

  let rec mem (p : int) = function [] -> false | q :: l -> q = p || mem p l

  let register t p q =
    if t.stamp.(q) <> t.gen then begin
      t.stamp.(q) <- t.gen;
      if not (mem p t.readers.(q)) then t.readers.(q) <- p :: t.readers.(q)
    end

  (* (Re-)evaluate the entry of [p] under [mode]: a table lookup when the
     packed hooks have one, the guard closures otherwise.  Either way [p]
     becomes a reader of every process its result depends on — the table's
     support, or whatever the closures actually read (recorded dynamically,
     so non-local oracles such as [Token_vring] are tracked too). *)
  let eval t ~inputs ~mode p =
    t.prof_guard_evals <- t.prof_guard_evals + 1;
    t.gen <- t.gen + 1;
    t.mode.(p) <- mode;
    let e = match t.packed with None -> -2 | Some pk -> pk.Model.pk_entry ~mode ~proc:p t.ids in
    match t.packed with
    | Some pk when e >= -1 ->
      t.prof_scan_hits <- t.prof_scan_hits + 1;
      Array.iter (register t p) (pk.Model.pk_support p);
      t.act.(p) <- (if e >= 0 then Model.entry_act e else -1);
      t.succ.(p) <- (if e >= 0 then Model.entry_succ e else -1)
    | packed ->
      if packed <> None then t.prof_scan_fallbacks <- t.prof_scan_fallbacks + 1;
      let read q =
        if t.check_locality then check_local t p q;
        register t p q;
        t.states.(q)
      in
      t.act.(p) <- Model.first_enabled t.actions (Model.make_ctx t.h ~inputs ~read p);
      t.succ.(p) <- -1

  (* The pre-step enabled set, ascending like {!enabled} (so the daemon
     sees an identical selection problem and makes identical RNG draws):
     only entries invalidated or computed under another input mode are
     re-evaluated. *)
  let scan t ~inputs =
    let acc = ref [] in
    for p = H.n t.h - 1 downto 0 do
      let mode = Model.mode_of inputs p in
      if t.mode.(p) <> mode then eval t ~inputs ~mode p;
      if t.act.(p) >= 0 then acc := p :: !acc
    done;
    !acc

  let step t ~inputs =
    let enabled_before = scan t ~inputs in
    if enabled_before = [] then
      { Model.step = t.step_no; selected = []; executed = []; neutralized = [];
        round = t.round_no; terminal = true }
    else begin
      let n = H.n t.h and now = t.step_no in
      (* establish the first round's pending set lazily: enabledness depends
         on the step's inputs, unknown at creation time *)
      if t.round_pending = None then
        t.round_pending <- Some (Array.init n (fun p -> t.act.(p) >= 0));
      let selected =
        Daemon.select t.daemon ~rng:t.rng ~step:now ~enabled:enabled_before
          ~continuously_enabled:(Array.get t.cont_enabled)
      in
      let selected = List.sort_uniq compare selected in
      if selected = [] then invalid_arg "daemon selected an empty set";
      List.iter
        (fun p ->
          if p < 0 || p >= n || t.act.(p) < 0 then
            invalid_arg (Printf.sprintf "daemon selected disabled process %d" p))
        selected;
      (* all statements read the pre-step configuration and run the action
         the scan cached, always as closures: the true states are
         authoritative (tables know only canonicalized cells), so packed
         and closure runs produce identical configurations *)
      let next =
        List.map (fun p -> t.actions.(t.act.(p)).Model.apply (ctx_for t ~inputs p)) selected
      in
      let executed = List.map (fun p -> (p, t.actions.(t.act.(p)).Model.label)) selected in
      t.prof_selects <- t.prof_selects + 1;
      t.prof_applies <- t.prof_applies + List.length selected;
      List.iter2 (fun p s -> t.states.(p) <- s; t.did.(p) <- now) selected next;
      (* mirror update: table hits copy the packed successor id (sound
         because canon(apply(s)) = canon(apply(canon(s))) under the
         System.S contract); closure evaluations re-intern *)
      if t.packed <> None then begin
        List.iter (fun p -> if t.succ.(p) >= 0 then t.ids.(p) <- t.succ.(p)) selected;
        reintern t (List.filter (fun p -> t.succ.(p) < 0) selected)
      end;
      (* post-step enabled set: only the recorded readers of the executed
         processes can have changed *)
      List.iter (invalidate_readers t) selected;
      for p = 0 to n - 1 do
        if t.mode.(p) < 0 then eval t ~inputs ~mode:(Model.mode_of inputs p) p
      done;
      let enabled_after p = t.act.(p) >= 0 and did_execute p = t.did.(p) = now in
      let neutralized =
        List.filter (fun p -> not (did_execute p || enabled_after p)) enabled_before
      in
      (* weak-fairness accounting *)
      List.iter (fun p -> t.cont_enabled.(p) <- t.cont_enabled.(p) + 1) enabled_before;
      for p = 0 to n - 1 do
        if did_execute p || not (enabled_after p) then t.cont_enabled.(p) <- 0
      done;
      (* round accounting (§2.2): the round completes once every process of
         its initial enabled set has been activated or neutralized *)
      (match t.round_pending with
       | None -> ()
       | Some pending ->
         List.iter (fun p -> pending.(p) <- false) neutralized;
         List.iter (fun p -> pending.(p) <- false) selected;
         if not (Array.exists Fun.id pending) then begin
           t.round_no <- t.round_no + 1;
           t.round_pending <- Some (Array.init n enabled_after)
         end);
      t.step_no <- now + 1;
      { Model.step = now; selected; executed; neutralized; round = t.round_no;
        terminal = false }
    end

  let run t ~steps ~inputs_at ?(on_step = fun _ _ -> ()) ?(stop_when = fun _ -> false) () =
    let rec go remaining =
      if remaining <= 0 then `Steps_exhausted
      else begin
        let inputs = inputs_at t in
        let report = step t ~inputs in
        if report.Model.terminal then `Terminal
        else begin
          on_step t report;
          if stop_when t then `Stopped else go (remaining - 1)
        end
      end
    in
    go steps

  let corrupt t ?rng ~victims () =
    let rng = match rng with Some r -> r | None -> t.rng in
    List.iter
      (fun p -> if p < 0 || p >= H.n t.h then invalid_arg "Engine.corrupt: bad victim")
      victims;
    List.iter
      (fun p ->
        t.states.(p) <- A.random_init t.h rng p;
        t.cont_enabled.(p) <- 0;
        invalidate_readers t p;
        t.mode.(p) <- -1)
      victims;
    reintern t victims;
    (* a fault may disable pending processes without a step; restart the
       round measurement from the corrupted configuration *)
    t.round_pending <- None
end
