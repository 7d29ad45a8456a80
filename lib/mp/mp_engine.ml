module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
module Tele = Snapcc_telemetry
module Vclock = Snapcc_telemetry.Vclock
module Sem = Mp_semantics

module Make (A : Model.ALGO) = struct
  module View = Mp_view.Make (A)

  type event =
    | Activated of int * string option
    | Delivered of int * int

  (* Table-driven mirror of the transformation state: dense domain ids for
     every core, cache entry and in-flight snapshot, and per-process packed
     view configurations.  The typed states stay authoritative; the mirror
     only replaces guard scans. *)
  type pk = {
    hooks : A.state Model.packed;
    core_ids : int array;
    cache_ids : int array array;  (* per process, per slot *)
    chan_ids : int array array;  (* id carried by the pending snapshot *)
    cfgs : int array array;
        (* cfgs.(p): p's view as a global-indexed id vector — own core at
           [p], caches at the neighbor indices; only support cells are read *)
    ok : bool array;
        (* table stored and support within the closed neighborhood: the
           cells a message-passing view actually maintains *)
  }

  (* Vector-clock bookkeeping, active only when stamping is on: per-process
     clocks plus the clock each pending snapshot carried when it entered
     the channel.  Purely observational — it never touches the rng or the
     scheduler, so stamped and unstamped runs are event-for-event
     identical. *)
  type vc = {
    clocks : int array array;
    chan_clocks : int array array array;
        (* chan_clocks.(p).(i): the clock carried by the snapshot pending
           from p's i-th neighbor, valid iff chan_has.(p).(i) — flat
           preallocated int rows, so the per-broadcast capture is a plain
           blit (no allocation, no write barrier on the hot path) *)
    chan_has : bool array array;
    mutable init_emitted : bool;
  }

  type t = {
    h : H.t;
    sem : Sem.t;  (* scheduler + rng: the shared transformation semantics *)
    telemetry : Tele.Hub.t option;
    views : View.t array;  (* per-process core + per-neighbor cache *)
    chan : A.state option array array;  (* chan.(p).(i): pending from i-th neighbor *)
    masks : int array;  (* bit i of masks.(p): chan.(p).(i) is pending *)
    mutable count : int;  (* pending links: the set bits of [masks] *)
    cores : A.state array;
        (* scratch for [A.observe]: the view cores, copied in when the
           observations are recomputed *)
    obs_cache : Obs.t array;  (* the observations, valid unless dirty *)
    mutable obs_dirty : bool;
        (* set wherever a view core changes: a labelled activation and
           [corrupt] *)
    actions : A.state Model.action array;
    mutable pk : pk option;
    mutable dropped : string option;  (* why [?packed] no longer serves *)
    vc : vc option;
    mutable sent : int;
    mutable delivered : int;
    mutable prof_pk_hits : int;
    mutable prof_pk_fallbacks : int;
    mutable prof_activations : int;
    mutable prof_deliveries : int;
  }

  let create ?(seed = 0) ?(init = `Canonical) ?(deliver_bias = 0.5) ?telemetry
      ?(vclock = true) ?packed h =
    let n = H.n h in
    let sem = Sem.create ~deliver_bias ~seed h in
    let rng = Sem.rng sem in
    let mk p = match init with `Canonical -> A.init h p | `Random -> A.random_init h rng p in
    let states = Array.init n mk in
    let views =
      Array.init n (fun p ->
          View.create h ~self:p ~core:states.(p)
            ~cache:
              (Array.map
                 (fun q ->
                   match init with
                   | `Canonical -> states.(q)
                   | `Random -> A.random_init h rng q)
                 (H.neighbors h p)))
    in
    let chan =
      Array.init n (fun p ->
          Array.map
            (fun q ->
              match init with
              | `Canonical -> None
              | `Random ->
                if Random.State.bool rng then Some (A.random_init h rng q) else None)
            (H.neighbors h p))
    in
    let pk =
      match packed with
      | None -> None
      | Some hooks -> (
        let in_neighborhood p q = q = p || H.are_neighbors h p q in
        let ok =
          Array.init n (fun p ->
              hooks.Model.pk_built p
              && Array.for_all (in_neighborhood p) (hooks.Model.pk_support p))
        in
        match
          let core_ids =
            Array.init n (fun p -> hooks.Model.pk_intern p (View.core views.(p)))
          in
          let cache_ids =
            Array.init n (fun p ->
                Array.mapi
                  (fun i q -> hooks.Model.pk_intern q (View.cache views.(p) i))
                  (H.neighbors h p))
          in
          let chan_ids =
            Array.init n (fun p ->
                Array.mapi
                  (fun i -> function
                    | None -> -1
                    | Some st -> hooks.Model.pk_intern (H.neighbors h p).(i) st)
                  chan.(p))
          in
          let cfgs =
            Array.init n (fun p ->
                let cfg = Array.make n 0 in
                cfg.(p) <- core_ids.(p);
                Array.iteri
                  (fun i q -> cfg.(q) <- cache_ids.(p).(i))
                  (H.neighbors h p);
                cfg)
          in
          { hooks; core_ids; cache_ids; chan_ids; cfgs; ok }
        with
        | pk -> Some (Ok pk)
        | exception Failure _ -> Some (Error "interner overflow"))
    in
    (* a mirror that serves no process would only re-intern cores *)
    let pk, dropped =
      match pk with
      | None -> (None, None)
      | Some (Ok pk) when Array.exists Fun.id pk.ok -> (Some pk, None)
      | Some (Ok _) ->
        (None, Some "no stored table reads only its process's closed neighborhood")
      | Some (Error why) -> (None, Some why)
    in
    let masks =
      Array.map
        (fun row ->
          let m = ref 0 in
          Array.iteri (fun i s -> if s <> None then m := !m lor (1 lsl i)) row;
          !m)
        chan
    in
    let count =
      Array.fold_left
        (fun acc row ->
          Array.fold_left (fun a m -> if m = None then a else a + 1) acc row)
        0 chan
    in
    let vc =
      if vclock && telemetry <> None then begin
        let clocks = Array.init n (fun _ -> Array.make n 0) in
        for p = 0 to n - 1 do
          clocks.(p).(p) <- 1
        done;
        let chan_clocks =
          Array.init n (fun p ->
              Array.map
                (fun q -> Array.copy clocks.(q))
                (H.neighbors h p))
        in
        (* randomly preloaded snapshots carry the sender's initial clock *)
        let chan_has =
          Array.init n (fun p ->
              Array.map (fun m -> m <> None) chan.(p))
        in
        Some { clocks; chan_clocks; chan_has; init_emitted = false }
      end
      else None
    in
    let cores = Array.map View.core views in
    { h; sem; telemetry; views; chan; masks; count; cores;
      obs_cache = Array.init n (A.observe h cores); obs_dirty = false;
      actions = Array.of_list (A.actions h);
      pk; dropped; vc; sent = 0; delivered = 0;
      prof_pk_hits = 0; prof_pk_fallbacks = 0;
      prof_activations = 0; prof_deliveries = 0 }

  let hypergraph t = t.h
  let engine_kind t = if t.pk = None then `Closure else `Packed

  let dropped t = t.dropped

  (* The cached observations, recomputed after a core changed.  Every
     process is projected again: an observation may read other cores (the
     token layer's [Token(p)] does). *)
  let observations t =
    if t.obs_dirty then begin
      for p = 0 to H.n t.h - 1 do
        t.cores.(p) <- View.core t.views.(p)
      done;
      for p = 0 to H.n t.h - 1 do
        t.obs_cache.(p) <- A.observe t.h t.cores p
      done;
      t.obs_dirty <- false
    end;
    t.obs_cache

  let obs t = Array.copy (observations t)
  let states t = Array.map View.core t.views

  let steps_taken t = Sem.steps t.sem
  let messages_delivered t = t.delivered
  let messages_sent t = t.sent
  let max_staleness t = Sem.max_staleness t.sem

  let profile t =
    [ ("mp_pk_hits", t.prof_pk_hits);
      ("mp_pk_fallbacks", t.prof_pk_fallbacks);
      ("mp_activations", t.prof_activations);
      ("mp_deliveries", t.prof_deliveries) ]

  let in_flight t = t.count

  let emit t ev =
    match t.telemetry with None -> () | Some hub -> Tele.Hub.emit hub ev

  let emit_clock t vc ~k p =
    let o = (observations t).(p) in
    emit t
      (Tele.Event.Clock
         { step = Sem.steps t.sem;
           p;
           k;
           clock = Array.to_list vc.clocks.(p);
           obs_code = Obs.code o;
           disc = o.Obs.discussions })

  (* Process initial configurations are events too (each sets its own clock
     component to 1); they are flushed lazily so they land after the
     runner's [run_start]. *)
  let ensure_init_clocks t =
    match t.vc with
    | Some vc when not vc.init_emitted ->
      vc.init_emitted <- true;
      for p = 0 to H.n t.h - 1 do
        emit_clock t vc ~k:Tele.Event.clock_init p
      done
    | _ -> ()

  let set_pending t p i =
    if t.chan.(p).(i) = None then begin
      t.masks.(p) <- t.masks.(p) lor (1 lsl i);
      t.count <- t.count + 1
    end

  let broadcast t p =
    let msg = Some (View.core t.views.(p)) in
    let nbrs = H.neighbors t.h p in
    for k = 0 to Array.length nbrs - 1 do
      let q = nbrs.(k) in
      let slot = View.slot t.views.(q) p in
      set_pending t q slot;
      (match t.pk with
       | Some pk -> pk.chan_ids.(q).(slot) <- pk.core_ids.(p)
       | None -> ());
      (match t.vc with
       | Some vc ->
         let src = vc.clocks.(p) in
         let dst = vc.chan_clocks.(q).(slot) in
         for j = 0 to Array.length src - 1 do
           Array.unsafe_set dst j (Array.unsafe_get src j)
         done;
         vc.chan_has.(q).(slot) <- true
       | None -> ());
      t.chan.(q).(slot) <- msg;
      t.sent <- t.sent + 1
    done

  let drop_mirror t why =
    t.pk <- None;
    t.dropped <- Some why

  (* Packed activation: one table lookup instead of the guard closure scan;
     the statement still runs against the typed view.  [-2] (or an
     out-of-neighborhood support) falls back to {!View.activate} and
     re-interns the new core; an interner overflow drops the whole mirror
     for the rest of the run. *)
  let view_activate t ~inputs p =
    match t.pk with
    | None -> View.activate t.views.(p) ~inputs
    | Some pk ->
      let fallback () =
        let label = View.activate t.views.(p) ~inputs in
        (match pk.hooks.Model.pk_intern p (View.core t.views.(p)) with
         | id ->
           pk.core_ids.(p) <- id;
           pk.cfgs.(p).(p) <- id
         | exception Failure _ -> drop_mirror t "interner overflow");
        label
      in
      if not pk.ok.(p) then fallback ()
      else begin
        let e =
          pk.hooks.Model.pk_entry ~mode:(Model.mode_of inputs p) ~proc:p
            pk.cfgs.(p)
        in
        if e >= -1 then t.prof_pk_hits <- t.prof_pk_hits + 1
        else t.prof_pk_fallbacks <- t.prof_pk_fallbacks + 1;
        if e = -1 then None
        else if e >= 0 then begin
          let i = Model.entry_act e in
          let ctx = Model.make_ctx t.h ~inputs ~read:(View.read t.views.(p)) p in
          View.set_core t.views.(p) (t.actions.(i).Model.apply ctx);
          let id = Model.entry_succ e in
          pk.core_ids.(p) <- id;
          pk.cfgs.(p).(p) <- id;
          Some t.actions.(i).Model.label
        end
        else fallback ()
      end

  let activate t ~inputs p =
    t.prof_activations <- t.prof_activations + 1;
    let label = view_activate t ~inputs p in
    (* a no-op activation leaves the core, and so the observations, as
       they were *)
    if label <> None then t.obs_dirty <- true;
    (* tick before broadcasting: the snapshot causally includes the
       activation; a no-op activation is a heartbeat, not an event *)
    (match t.vc with
     | Some vc when label <> None ->
       let own = vc.clocks.(p) in
       own.(p) <- own.(p) + 1
     | _ -> ());
    broadcast t p;
    Sem.on_activated t.sem p;
    emit t (Tele.Event.Mp_activated { step = Sem.steps t.sem; p; label });
    (match t.vc with
     | Some vc when label <> None ->
       emit_clock t vc ~k:Tele.Event.clock_activation p
     | _ -> ());
    Activated (p, label)

  let deliver t p i =
    let received = t.chan.(p).(i) <> None in
    (match t.chan.(p).(i) with
     | Some msg ->
       t.prof_deliveries <- t.prof_deliveries + 1;
       View.refresh t.views.(p) ~slot:i msg;
       (match t.pk with
        | Some pk ->
          let id = pk.chan_ids.(p).(i) in
          pk.cache_ids.(p).(i) <- id;
          pk.cfgs.(p).((H.neighbors t.h p).(i)) <- id
        | None -> ());
       t.masks.(p) <- t.masks.(p) land lnot (1 lsl i);
       t.count <- t.count - 1;
       (match t.vc with
        | Some vc ->
          let own = vc.clocks.(p) in
          if vc.chan_has.(p).(i) then begin
            let carried = vc.chan_clocks.(p).(i) in
            for j = 0 to Array.length own - 1 do
              let c = Array.unsafe_get carried j in
              if c > Array.unsafe_get own j then Array.unsafe_set own j c
            done;
            vc.chan_has.(p).(i) <- false
          end;
          own.(p) <- own.(p) + 1
        | None -> ());
       Sem.on_cache_refresh t.sem ~dst:p ~slot:i;
       t.chan.(p).(i) <- None;
       t.delivered <- t.delivered + 1
     | None -> ());
    let src = (H.neighbors t.h p).(i) in
    emit t (Tele.Event.Mp_delivered { step = Sem.steps t.sem; dst = p; src });
    (match t.vc with
     | Some vc when received -> emit_clock t vc ~k:Tele.Event.clock_delivery p
     | _ -> ());
    Delivered (p, src)

  let step t ~inputs =
    ensure_init_clocks t;
    Sem.begin_step t.sem;
    match Sem.decide t.sem ~masks:t.masks ~count:t.count with
    | Sem.Activate p -> activate t ~inputs p
    | Sem.Deliver (p, i) -> deliver t p i

  let corrupt t ~victims =
    ensure_init_clocks t;
    let rng = Sem.rng t.sem in
    emit t (Tele.Event.Fault { step = Sem.steps t.sem; victims });
    List.iter
      (fun p ->
        if p < 0 || p >= H.n t.h then invalid_arg "mp corrupt: bad victim";
        View.set_core t.views.(p) (A.random_init t.h rng p);
        t.obs_dirty <- true;
        Array.iteri
          (fun i q -> View.refresh t.views.(p) ~slot:i (A.random_init t.h rng q))
          (H.neighbors t.h p);
        Array.iteri
          (fun i q ->
            if Random.State.bool rng then begin
              set_pending t p i;
              (* the adversary forged a snapshot "from q": stamp it with
                 q's current clock so delivery stays causally well-formed *)
              (match t.vc with
               | Some vc ->
                 let src = vc.clocks.(q) in
                 Array.blit src 0 vc.chan_clocks.(p).(i) 0 (Array.length src);
                 vc.chan_has.(p).(i) <- true
               | None -> ());
              t.chan.(p).(i) <- Some (A.random_init t.h rng q)
            end)
          (H.neighbors t.h p);
        (match t.vc with
         | Some vc ->
           Vclock.tick vc.clocks.(p) p;
           emit_clock t vc ~k:Tele.Event.clock_corruption p
         | None -> ());
        (* refresh the mirror for everything the fault rewrote *)
        match t.pk with
        | Some pk -> (
          match
            let id = pk.hooks.Model.pk_intern p (View.core t.views.(p)) in
            pk.core_ids.(p) <- id;
            pk.cfgs.(p).(p) <- id;
            Array.iteri
              (fun i q ->
                let id = pk.hooks.Model.pk_intern q (View.cache t.views.(p) i) in
                pk.cache_ids.(p).(i) <- id;
                pk.cfgs.(p).(q) <- id;
                match t.chan.(p).(i) with
                | Some st -> pk.chan_ids.(p).(i) <- pk.hooks.Model.pk_intern q st
                | None -> ())
              (H.neighbors t.h p)
          with
          | () -> ()
          | exception Failure _ -> drop_mirror t "interner overflow")
        | None -> ())
      victims
end
