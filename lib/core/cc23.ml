(** Algorithm 2 (paper §5): snap-stabilizing 2-phase committee coordination
    with {e Professor Fairness} ([CC2 ∘ TC]), and its §5.4 modification
    [CC3 ∘ TC] satisfying {e Committee Fairness}.

    Both assume professors wait for meetings infinitely often, so
    [RequestIn] and the [idle] status are implicit (§5): a process is always
    [looking] when not engaged.  CC3 differs from CC2 in a single action:
    instead of pointing at a smallest incident committee ([MinEdges]), the
    token holder selects its incident committees sequentially (round-robin
    cursor advanced on each [Step4]).

    Deliberate deviation (documented in DESIGN.md): the paper's
    [TPointingNodes] macro literally collects {e all} members of
    token-pointing committees, which can leave [Step12]'s statement
    undefined; we take the {e witness} set — the processes [q] with
    [Pq = ε ∧ Tq ∧ Sq = looking] — which coincides with the literal reading
    in every single-token configuration. *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
open Cc_common

type cc = {
  s : status;  (** [Sp] ∈ [{looking, waiting, done}] *)
  ptr : int option;  (** [Pp] *)
  tf : bool;  (** [Tp] *)
  lk : bool;  (** [Lp] *)
  cur : int;  (** CC3's round-robin cursor over [Ep] (unused by CC2) *)
  disc : int;  (** essential discussions performed *)
}

module type VARIANT = sig
  val committee_fair : bool
  (** [false] = CC2 (MinEdges target), [true] = CC3 (sequential target). *)

  val non_token_convening : bool
  (** [true] in the paper's algorithms: committees without the token may
      convene through [Step13]/[Step14].  [false] yields the circulating-
      token baseline of Bagrodia [3] discussed in §6 (only the token holder
      initiates meetings), used by the related-work benches. *)

  val release_when_useless : bool
  (** [false] in the paper's CC2/CC3: the token holder {e retains} the token
      until it participates in a meeting — the very mechanism that buys
      fairness (§3.2).  [true] grafts CC1's release policy ([Token2]) onto
      the algorithm: the holder gives the token up whenever it cannot
      immediately be helped.  The ablation benches show this single switch
      forfeits Professor Fairness. *)
end

module Cc2_variant : VARIANT = struct
  let committee_fair = false
  let non_token_convening = true
  let release_when_useless = false
end

module Cc3_variant : VARIANT = struct
  let committee_fair = true
  let non_token_convening = true
  let release_when_useless = false
end

module Token_only_variant : VARIANT = struct
  let committee_fair = false
  let non_token_convening = false
  let release_when_useless = false
end

module Eager_release_variant : VARIANT = struct
  let committee_fair = false
  let non_token_convening = true
  let release_when_useless = true
end

module Make (T : Snapcc_token.Layer.S) (V : VARIANT) (P : PARAMS) :
sig
  include Model.ALGO with type state = cc * T.state

  val cc : state -> cc
  val correct : H.t -> read:(int -> state) -> int -> bool
  val locked : H.t -> read:(int -> state) -> int -> bool
end = struct
  type state = cc * T.state

  let name =
    Printf.sprintf "%s∘%s" (if V.committee_fair then "CC3" else "CC2") T.name

  let cc (c, _) = c

  let pp_state ppf ((c, t) : state) =
    Format.fprintf ppf "S=%a P=%s T=%b L=%b cur=%d disc=%d | %a" pp_status c.s
      (match c.ptr with None -> "⊥" | Some e -> "e" ^ string_of_int e)
      c.tf c.lk c.cur c.disc T.pp_state t

  let equal_state ((c1, t1) : state) (c2, t2) = c1 = c2 && T.equal_state t1 t2

  (* The token layer's view of a context, shared by [Token(p)] and the
     lifted token-layer actions. *)
  let tl = Model.lift ~get:snd ~set:(fun (cc, _) tc -> (cc, tc))

  (* [Token(p)] outside a guard ([observe]) *)
  let has_token h read p = T.has_token h ~read:(fun q -> snd (read q)) p
  let release (ctx : state Model.ctx) =
    T.release ctx.Model.h ~read:(Model.lower tl ctx).Model.read ctx.Model.self
  let c read p = fst (read p)
  let me (ctx : state Model.ctx) = c ctx.Model.read ctx.Model.self

  (* ---- macros of Algorithm 2 ----
     Loops over the hypergraph (see {!Cc_common.exists_committee}); only
     the statements of [Step11] and [Step13] build candidate lists.  The
     macros several guards of one scan share are memoized in the context,
     one slot each: [Token], [Ready], [Meeting], [max(TPointingNodes)]
     (hence [Locked]), [max(FreeNodes)] and [Correct]. *)

  let slot_token = 0
  let slot_ready = 1
  let slot_meeting = 2
  let slot_tpointing = 3
  let slot_free_nodes = 4
  let slot_correct = 5

  let token_of ctx = T.token (Model.lower tl ctx)
  let token ctx = Model.memo_bool ctx slot_token token_of

  let free_member read _e q =
    let cq = c read q in
    cq.s = Looking && (not cq.lk) && not cq.tf

  (* [ε ∈ FreeEdges(p)] for [ε ∈ Ep] *)
  let is_free_edge h read e = all_members free_member h read e

  let free_edges h read p =
    List.filter (is_free_edge h read) (Array.to_list (H.incident h p))

  (* [ε ∈ FreeEdges(p)] for any committee [ε] *)
  let mem_free_edges h read p e = incident_to h p e && is_free_edge h read e

  (* [max(FreeNodes(p))], [-1] when [FreeEdges(p) = ∅].  Every committee
     of [p] is tested, like the macro. *)
  let free_nodes_max_of (ctx : state Model.ctx) =
    let h = ctx.Model.h and read = ctx.Model.read in
    let es = H.incident h ctx.Model.self in
    let best = ref (-1) in
    for i = 0 to Array.length es - 1 do
      if is_free_edge h read es.(i) then begin
        let ms = H.edge_members h es.(i) in
        for j = 0 to Array.length ms - 1 do
          best := max_id h !best ms.(j)
        done
      end
    done;
    !best

  let free_nodes_max ctx = Model.memo_int ctx slot_free_nodes free_nodes_max_of

  (* token-pointing witness of [ε]: a member visibly claiming [ε] with the
     token *)
  let tpointing read e q =
    let cq = c read q in
    points_to cq.ptr e && cq.tf && cq.s = Looking

  (* [max(TPointingNodes(p))] over the witnesses among the members of
     committees incident to [p]; [-1] when there is none.  Reads every
     member of every committee of [p], like the macro. *)
  let tpointing_nodes_max_of (ctx : state Model.ctx) =
    let h = ctx.Model.h and read = ctx.Model.read in
    let es = H.incident h ctx.Model.self in
    let best = ref (-1) in
    for i = 0 to Array.length es - 1 do
      let ms = H.edge_members h es.(i) in
      for j = 0 to Array.length ms - 1 do
        if tpointing read es.(i) ms.(j) then best := max_id h !best ms.(j)
      done
    done;
    !best

  let tpointing_nodes_max ctx = Model.memo_int ctx slot_tpointing tpointing_nodes_max_of

  (* [ε ∈ TPointingEdges(p)]: a witness points at [ε ∈ Ep] *)
  let mem_tpointing_edges h read p e =
    incident_to h p e
    &&
    let ms = H.edge_members h e in
    let i = ref 0 in
    while !i < Array.length ms && not (tpointing read e ms.(!i)) do incr i done;
    !i < Array.length ms

  (* CC3: the committee currently selected by the round-robin cursor *)
  let sequential_edge h read p =
    let incident = H.incident h p in
    incident.(((c read p).cur mod Array.length incident + Array.length incident)
              mod Array.length incident)

  (* ---- predicates of Algorithm 2 ---- *)

  (* [TPointingEdges(p) ≠ ∅] *)
  let locked_pred ctx = tpointing_nodes_max ctx >= 0

  let ready_member read e q =
    let cq = c read q in
    points_to cq.ptr e && (cq.s = Looking || cq.s = Waiting)

  let ready_of (ctx : state Model.ctx) =
    exists_committee ready_member ctx.Model.h ctx.Model.read ctx.Model.self

  let ready ctx = Model.memo_bool ctx slot_ready ready_of

  let meeting_member read e q =
    let cq = c read q in
    points_to cq.ptr e && (cq.s = Waiting || cq.s = Done)

  let meeting_of (ctx : state Model.ctx) =
    exists_committee meeting_member ctx.Model.h ctx.Model.read ctx.Model.self

  let meeting ctx = Model.memo_bool ctx slot_meeting meeting_of

  let left_member read e q =
    let cq = c read q in
    (not (points_to cq.ptr e)) || cq.s <> Waiting

  (* the committee [Pp] is the only candidate: [Pp = ε] for one [ε] *)
  let leave_meeting (ctx : state Model.ctx) =
    let cp = me ctx in
    match cp.ptr with
    | Some e ->
      cp.s = Done
      && incident_to ctx.Model.h ctx.Model.self e
      && all_members left_member ctx.Model.h ctx.Model.read e
    | None -> false

  (* [LocalMax(p)] (implies [FreeEdges(p) ≠ ∅]) *)
  let local_max (ctx : state Model.ctx) = free_nodes_max ctx = ctx.Model.self

  let max_to_free_edge (ctx : state Model.ctx) =
    V.non_token_convening
    && (not (token ctx))
    && (not (locked_pred ctx))
    && local_max ctx
    && (not (ready ctx))
    && (match (me ctx).ptr with
        | None -> true
        | Some e -> not (mem_free_edges ctx.Model.h ctx.Model.read ctx.Model.self e))

  let join_local_max (ctx : state Model.ctx) =
    V.non_token_convening
    && (not (token ctx))
    && (not (locked_pred ctx))
    &&
    let read = ctx.Model.read and p = ctx.Model.self in
    let leader = free_nodes_max ctx in
    leader >= 0 && leader <> p
    && (not (ready ctx))
    &&
    match (c read leader).ptr with
    | None -> false
    | Some e -> (not (points_to (c read p).ptr e)) && mem_free_edges ctx.Model.h read p e

  let token_holder_to_edge (ctx : state Model.ctx) =
    token ctx
    && (me ctx).s = Looking
    && (not (ready ctx))
    &&
    let h = ctx.Model.h and p = ctx.Model.self in
    if V.committee_fair then not (points_to (me ctx).ptr (sequential_edge h ctx.Model.read p))
    else
      match (me ctx).ptr with
      | None -> true
      | Some e -> not (mem e (H.min_edges h p))

  let join_token_holder (ctx : state Model.ctx) =
    (not (token ctx))
    && (me ctx).s = Looking
    && (not (ready ctx))
    && locked_pred ctx
    && (match (me ctx).ptr with
        | None -> true
        | Some e -> not (mem_tpointing_edges ctx.Model.h ctx.Model.read ctx.Model.self e))

  (* CC1's Useless predicate transplanted for the eager-release ablation:
     no incident committee has all its members looking. *)
  let looking read _e q = (c read q).s = Looking

  let useless (ctx : state Model.ctx) =
    token ctx
    && (me ctx).s = Looking
    && not (exists_committee looking ctx.Model.h ctx.Model.read ctx.Model.self)

  let correct_of ctx =
    let cp = me ctx in
    (cp.s <> Waiting || ready ctx || meeting ctx)
    && (cp.s <> Done || meeting ctx || leave_meeting ctx)

  let correct_ctx ctx = Model.memo_bool ctx slot_correct correct_of

  let correct h ~read p = correct_ctx (Model.make_ctx h ~inputs:Model.no_inputs ~read p)
  let locked h ~read p = locked_pred (Model.make_ctx h ~inputs:Model.no_inputs ~read p)

  (* ---- actions, in the paper's code order (last = highest priority) ---- *)

  let cc_actions h : state Model.action list =
    let self (ctx : state Model.ctx) = ctx.Model.self in
    let tc ctx = snd (ctx.Model.read ctx.Model.self) in
    [ { Model.label = "Lock";
        guard = (fun ctx -> locked_pred ctx <> (me ctx).lk);
        apply = (fun ctx -> ({ (me ctx) with lk = locked_pred ctx }, tc ctx)) };
      { Model.label = "Step11";
        guard = token_holder_to_edge;
        apply =
          (fun ctx ->
            let e =
              if V.committee_fair then sequential_edge h ctx.Model.read (self ctx)
              else P.choose_edge h (Array.to_list (H.min_edges h (self ctx)))
            in
            ({ (me ctx) with ptr = Some e }, tc ctx)) };
      { Model.label = "Step12";
        guard = join_token_holder;
        apply =
          (fun ctx ->
            match tpointing_nodes_max ctx with
            | -1 -> (me ctx, tc ctx)
            | w -> ({ (me ctx) with ptr = (c ctx.Model.read w).ptr }, tc ctx)) };
      { Model.label = "Step13";
        guard = max_to_free_edge;
        apply =
          (fun ctx ->
            let e = P.choose_edge h (free_edges h ctx.Model.read (self ctx)) in
            ({ (me ctx) with ptr = Some e }, tc ctx)) };
      { Model.label = "Step14";
        guard = join_local_max;
        apply =
          (fun ctx ->
            match free_nodes_max ctx with
            | -1 -> (me ctx, tc ctx)
            | leader -> ({ (me ctx) with ptr = (c ctx.Model.read leader).ptr }, tc ctx)) };
      { Model.label = "Token2";
        guard = (fun ctx -> V.release_when_useless && useless ctx);
        apply = (fun ctx -> ({ (me ctx) with tf = false }, release ctx)) };
      { Model.label = "Token";
        guard = (fun ctx -> token ctx <> (me ctx).tf);
        apply = (fun ctx -> ({ (me ctx) with tf = token ctx }, tc ctx)) };
      { Model.label = "Step2";
        guard = (fun ctx -> ready ctx && (me ctx).s = Looking);
        apply = (fun ctx -> ({ (me ctx) with s = Waiting }, tc ctx)) };
      { Model.label = "Step3";
        guard = (fun ctx -> meeting ctx && (me ctx).s = Waiting);
        apply =
          (fun ctx -> ({ (me ctx) with s = Done; disc = (me ctx).disc + 1 }, tc ctx)) };
      { Model.label = "Step4";
        guard =
          (fun ctx -> leave_meeting ctx && ctx.Model.inputs.Model.request_out (self ctx));
        apply =
          (fun ctx ->
            let tc' = if token ctx then release ctx else tc ctx in
            let cur = if V.committee_fair then (me ctx).cur + 1 else (me ctx).cur in
            ({ (me ctx) with s = Looking; ptr = None; tf = false; cur }, tc')) };
    ]

  let stab_actions _h : state Model.action list =
    let tc ctx = snd (ctx.Model.read ctx.Model.self) in
    [ { Model.label = "Stab";
        guard = (fun ctx -> not (correct_ctx ctx));
        apply = (fun ctx -> ({ (me ctx) with s = Looking; ptr = None }, tc ctx)) };
    ]

  (* Fair composition by priorities: token-layer internals above the routine
     committee actions, Stab on top (Corollary 5: Correct within a round). *)
  let actions h =
    cc_actions h @ List.map (Model.lift_action tl) (T.internal_actions h) @ stab_actions h

  let init h =
    let tc_init = T.init h in
    fun p ->
      ({ s = Looking; ptr = None; tf = false; lk = false; cur = 0; disc = 0 },
       tc_init p)

  let random_init h rng p =
    let statuses = [| Looking; Waiting; Done |] in
    let incident = H.incident h p in
    let ptr =
      if Random.State.bool rng then None
      else Some incident.(Random.State.int rng (Array.length incident))
    in
    ( { s = statuses.(Random.State.int rng 3);
        ptr;
        tf = Random.State.bool rng;
        lk = Random.State.bool rng;
        cur = Random.State.int rng (max 1 (Array.length incident));
        disc = 0 },
      T.random_init h rng p )

  let observe h states p =
    let read = Array.get states in
    let cp = c read p in
    Obs.make ~pointer:cp.ptr ~token_flag:cp.tf ~locked:cp.lk
      ~has_token:(has_token h read p) ~discussions:cp.disc
      (to_obs_status cp.s)
end

(** CC2 with the default edge choice. *)
module Cc2_std (T : Snapcc_token.Layer.S) = Make (T) (Cc2_variant) (Default_params)

(** CC3 with the default edge choice. *)
module Cc3_std (T : Snapcc_token.Layer.S) = Make (T) (Cc3_variant) (Default_params)

(** The §6 circulating-token baseline (only token holders convene). *)
module Token_only_std (T : Snapcc_token.Layer.S) =
  Make (T) (Token_only_variant) (Default_params)

(** Ablation: CC2 with CC1's eager token release — fairness lost (§3.2). *)
module Eager_release_std (T : Snapcc_token.Layer.S) =
  Make (T) (Eager_release_variant) (Default_params)
