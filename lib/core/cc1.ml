(** Algorithm 1 (paper §4): snap-stabilizing 2-phase committee coordination
    with {e Maximal Concurrency}, composed with a token layer [T] by fair
    composition ([CC1 ∘ TC]).

    The transcription is literal: macros, predicates and actions carry the
    paper's names, actions are listed in the paper's code order (an action
    appearing later has higher priority, §2.2), and the token layer's
    internal stabilization actions are appended after them — they are
    self-disabling, which realizes the fair composition.

    The only liberty is the don't-care choice "[ε such that ε ∈ FreeEdges]"
    in [Step21], delegated to {!Cc_common.PARAMS}. *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
open Cc_common

type cc = {
  s : status;  (** [Sp] *)
  ptr : int option;  (** [Pp] (committee edge id, [None] = ⊥) *)
  tf : bool;  (** [Tp], the mirrored token flag *)
  disc : int;  (** essential discussions performed (observability) *)
}

(** Deliberate defects, used to validate the model checker ([lib/mc]): a
    verifier that never finds anything proves nothing.  [Intact] is the
    paper's algorithm. *)
module type BREAK = sig
  val invert_priorities : bool
  (** Reverse the action list, turning the paper's priority order (§2.2)
      upside down: [Stab1]/[Stab2] drop from the highest priority to the
      lowest, [Step1] climbs to the top. *)

  val unchecked_ready : bool
  (** Transcription typo in the [Ready] predicate: drop the
      "[Sq ∈ {looking, waiting}]" conjunct and only require every member to
      point at the committee — which lets a meeting convene around a
      professor stuck in [done] from a corrupted initial configuration. *)
end

module Intact : BREAK = struct
  let invert_priorities = false
  let unchecked_ready = false
end

(** The result signature shared by every instantiation. *)
module type S = sig
  type token_state

  include Model.ALGO with type state = cc * token_state

  val cc : state -> cc
  val correct : H.t -> read:(int -> state) -> int -> bool
  (** The [Correct(p)] predicate, exposed for the closure tests (Lemma 3). *)
end

module Make_gen (T : Snapcc_token.Layer.S) (P : PARAMS) (B : BREAK) :
  S with type token_state = T.state = struct
  type token_state = T.state
  type state = cc * T.state

  let name =
    Printf.sprintf "CC1%s%s∘%s"
      (if B.invert_priorities then "[rev-prio]" else "")
      (if B.unchecked_ready then "[unchecked-ready]" else "")
      T.name

  let cc (c, _) = c

  let pp_state ppf ((c, t) : state) =
    Format.fprintf ppf "S=%a P=%s T=%b disc=%d | %a" pp_status c.s
      (match c.ptr with None -> "⊥" | Some e -> "e" ^ string_of_int e)
      c.tf c.disc T.pp_state t

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

  (* ---- macros of Algorithm 1 ----
     Loops over the hypergraph (see {!Cc_common.exists_committee}); only
     the statement of [Step21] builds the [FreeEdges] list.  The macros
     several guards of one scan share are memoized in the context, one
     slot each: [Token], [Ready], [Meeting], [Correct] and [max(Cands)]. *)

  let slot_token = 0
  let slot_ready = 1
  let slot_meeting = 2
  let slot_correct = 3
  let slot_cands = 4

  let token_of ctx = T.token (Model.lower tl ctx)
  let token ctx = Model.memo_bool ctx slot_token token_of

  let looking read _e q = (c read q).s = Looking

  (* [ε ∈ FreeEdges(p)] for [ε ∈ Ep]: every member is looking *)
  let is_free_edge h read e = all_members looking h read e

  let free_edges h read p =
    List.filter (is_free_edge h read) (Array.to_list (H.incident h p))

  (* [max(Cands(p))]: the largest identifier of [TFreeNodes(p)], or of
     [FreeNodes(p)] when [TFreeNodes(p) = ∅]; [-1] when [FreeEdges(p) = ∅].
     Every committee of [p] is tested, like the macros. *)
  let cands_max_of (ctx : state Model.ctx) =
    let h = ctx.Model.h and read = ctx.Model.read in
    let es = H.incident h ctx.Model.self in
    let free = ref (-1) and tfree = ref (-1) in
    for i = 0 to Array.length es - 1 do
      if is_free_edge h read es.(i) then begin
        let ms = H.edge_members h es.(i) in
        for j = 0 to Array.length ms - 1 do
          let q = ms.(j) in
          free := max_id h !free q;
          if (c read q).tf then tfree := max_id h !tfree q
        done
      end
    done;
    if !tfree >= 0 then !tfree else !free

  let cands_max ctx = Model.memo_int ctx slot_cands cands_max_of

  (* [ε ∈ FreeEdges(p)] for any committee [ε] *)
  let mem_free_edges h read p e = incident_to h p e && is_free_edge h read e

  (* ---- predicates of Algorithm 1 ---- *)

  let ready_member read e q =
    let cq = c read q in
    points_to cq.ptr e && (B.unchecked_ready || cq.s = Looking || cq.s = Waiting)

  let ready_of (ctx : state Model.ctx) =
    exists_committee ready_member ctx.Model.h ctx.Model.read ctx.Model.self

  let ready ctx = Model.memo_bool ctx slot_ready ready_of

  (* [LocalMax(p)] (implies [FreeEdges(p) ≠ ∅]) *)
  let local_max (ctx : state Model.ctx) = cands_max ctx = ctx.Model.self

  let max_to_free_edge (ctx : state Model.ctx) =
    local_max ctx
    && (not (ready ctx))
    && (match (me ctx).ptr with
        | None -> true
        | Some e -> not (mem_free_edges ctx.Model.h ctx.Model.read ctx.Model.self e))

  let join_local_max (ctx : state Model.ctx) =
    let read = ctx.Model.read and p = ctx.Model.self in
    let leader = cands_max ctx in
    leader >= 0 && leader <> p
    && (not (ready ctx))
    &&
    match (c read leader).ptr with
    | None -> false
    | Some e -> (not (points_to (c read p).ptr e)) && mem_free_edges ctx.Model.h read p e

  let meeting_member read e q =
    let cq = c read q in
    points_to cq.ptr e && (cq.s = Waiting || cq.s = Done)

  let meeting_of (ctx : state Model.ctx) =
    exists_committee meeting_member ctx.Model.h ctx.Model.read ctx.Model.self

  let meeting ctx = Model.memo_bool ctx slot_meeting meeting_of

  let left_member read e q =
    let cq = c read q in
    (not (points_to cq.ptr e)) || cq.s = Done

  (* the committee [Pp] is the only candidate: [Pp = ε] for one [ε] *)
  let leave_meeting (ctx : state Model.ctx) =
    match (me ctx).ptr with
    | Some e ->
      incident_to ctx.Model.h ctx.Model.self e
      && all_members left_member ctx.Model.h ctx.Model.read e
    | None -> false

  let useless ctx =
    token ctx
    &&
    let cp = me ctx in
    cp.s = Idle || (cp.s = Looking && cands_max ctx < 0)

  let correct_of ctx =
    let cp = me ctx in
    (cp.s <> Idle || Option.is_none cp.ptr)
    && (cp.s <> Waiting || ready ctx || meeting ctx)
    && (cp.s <> Done || meeting ctx || leave_meeting ctx)

  let correct_ctx ctx = Model.memo_bool ctx slot_correct correct_of

  let correct h ~read p = correct_ctx (Model.make_ctx h ~inputs:Model.no_inputs ~read p)

  (* ---- actions, in the paper's code order (last = highest priority) ---- *)

  let cc_actions h : state Model.action list =
    let self (ctx : state Model.ctx) = ctx.Model.self in
    let tc ctx = snd (ctx.Model.read ctx.Model.self) in
    [ { Model.label = "Step1";
        guard = (fun ctx -> ctx.Model.inputs.Model.request_in (self ctx) && (me ctx).s = Idle);
        apply = (fun ctx -> ({ (me ctx) with s = Looking; ptr = None }, tc ctx)) };
      { Model.label = "Step21";
        guard = max_to_free_edge;
        apply =
          (fun ctx ->
            let e = P.choose_edge h (free_edges h ctx.Model.read (self ctx)) in
            ({ (me ctx) with ptr = Some e }, tc ctx)) };
      { Model.label = "Step22";
        guard = join_local_max;
        apply =
          (fun ctx ->
            match cands_max ctx with
            | -1 -> (me ctx, tc ctx)
            | leader -> ({ (me ctx) with ptr = (c ctx.Model.read leader).ptr }, tc ctx)) };
      { Model.label = "Token1";
        guard = (fun ctx -> token ctx <> (me ctx).tf);
        apply = (fun ctx -> ({ (me ctx) with tf = token ctx }, tc ctx)) };
      { Model.label = "Token2";
        guard = useless;
        apply = (fun ctx -> ({ (me ctx) with tf = false }, release ctx)) };
      { Model.label = "Step31";
        guard = (fun ctx -> ready ctx && (me ctx).s = Looking);
        apply = (fun ctx -> ({ (me ctx) with s = Waiting }, tc ctx)) };
      { Model.label = "Step32";
        guard = (fun ctx -> meeting ctx && (me ctx).s = Waiting);
        apply =
          (fun ctx ->
            (* 〈EssentialDiscussion〉 then Sp := done *)
            ({ (me ctx) with s = Done; disc = (me ctx).disc + 1 }, tc ctx)) };
      { Model.label = "Step4";
        guard =
          (fun ctx -> leave_meeting ctx && ctx.Model.inputs.Model.request_out (self ctx));
        apply =
          (fun ctx ->
            let tc' = if token ctx then release ctx else tc ctx in
            ({ (me ctx) with s = Idle; ptr = None; tf = false }, tc')) };
    ]

  let stab_actions _h : state Model.action list =
    let tc ctx = snd (ctx.Model.read ctx.Model.self) in
    [ { Model.label = "Stab1";
        guard = (fun ctx -> (not (correct_ctx ctx)) && (me ctx).s = Idle);
        apply = (fun ctx -> ({ (me ctx) with ptr = None }, tc ctx)) };
      { Model.label = "Stab2";
        guard = (fun ctx -> (not (correct_ctx ctx)) && (me ctx).s <> Idle);
        apply = (fun ctx -> ({ (me ctx) with s = Looking; ptr = None }, tc ctx)) };
    ]

  (* Fair composition by priorities: the token layer's self-disabling
     internal actions preempt the routine committee actions (so neither
     layer starves the other), but Stab1/Stab2 keep the paper's top
     priority — after at most one round every process is Correct forever
     (Corollary 3). *)
  let actions h =
    let all =
      cc_actions h @ List.map (Model.lift_action tl) (T.internal_actions h) @ stab_actions h
    in
    if B.invert_priorities then List.rev all else all

  let init h =
    let tc_init = T.init h in
    fun p -> ({ s = Idle; ptr = None; tf = false; disc = 0 }, tc_init p)

  let random_init h rng p =
    let statuses = [| Idle; Looking; Waiting; Done |] in
    let incident = H.incident h p in
    let ptr =
      if Random.State.bool rng then None
      else Some incident.(Random.State.int rng (Array.length incident))
    in
    ( { s = statuses.(Random.State.int rng 4);
        ptr;
        tf = Random.State.bool rng;
        disc = 0 },
      T.random_init h rng p )

  let observe h states p =
    let read = Array.get states in
    let cp = c read p in
    Obs.make ~pointer:cp.ptr ~token_flag:cp.tf ~has_token:(has_token h read p)
      ~discussions:cp.disc
      (to_obs_status cp.s)
end

module Make (T : Snapcc_token.Layer.S) (P : PARAMS) = Make_gen (T) (P) (Intact)

(** CC1 with the default edge choice. *)
module Std (T : Snapcc_token.Layer.S) = Make (T) (Default_params)

(** Broken variant: priority order inverted ([Stab] lowest, [Step1]
    highest).  The model checker's ground truth on whether CC1's safety
    closure survives a priority shuffle. *)
module Inverted_std (T : Snapcc_token.Layer.S) =
  Make_gen (T) (Default_params)
    (struct
      let invert_priorities = true
      let unchecked_ready = false
    end)

(** Broken variant: the [Ready] predicate ignores member statuses, letting
    committees convene around professors stuck in [done] — a guaranteed
    synchronization violation from suitably corrupted initial states. *)
module Unchecked_ready_std (T : Snapcc_token.Layer.S) =
  Make_gen (T) (Default_params)
    (struct
      let invert_priorities = false
      let unchecked_ready = true
    end)
