(** The computational model of §2.2: locally shared variables and
    prioritized guarded actions.

    Each process owns a state; a guard may read the state of the process and
    of its neighbors in the underlying network; a statement computes a new
    local state.  Actions are listed {e in the order of the paper's code}:
    an action appearing {b later} has {b higher} priority, and a selected
    enabled process executes its highest-priority enabled action.  All
    selected processes of a step read the same pre-step configuration. *)

type inputs = {
  request_in : int -> bool;
      (** [RequestIn(p)]: the professor requests to join a committee. *)
  request_out : int -> bool;
      (** [RequestOut(p)]: the professor wants to stop discussing. *)
}

val no_inputs : inputs
(** Both predicates constantly false. *)

val always_in : inputs
(** [RequestIn] constantly true, [RequestOut] constantly false. *)

val input_modes : (string * inputs) array
(** The four uniform input modes the analysis tools quantify over, applied
    to all processes alike: ["quiet"] (no requests), ["in"], ["out"],
    ["in+out"].  Shared by the static analyzer ([lib/statics]) and the
    model checker ([lib/mc]) so their input coverage cannot drift apart. *)

type lowered
(** The inner context a {!lift} caches in an outer one (opaque). *)

(** One evaluation of [self] on one configuration: a snapshot.  Guards and
    statements may memoize macros in it ({!memo_int}, {!memo_bool}), so a
    context must not outlive the configuration [read] returns. *)
type 'state ctx = private {
  h : Snapcc_hypergraph.Hypergraph.t;
  inputs : inputs;
  read : int -> 'state;  (** read a process state (self or neighbor only) *)
  self : int;
  memo : int array;
      (** 8 macro slots, [min_int] until computed; empty in a context
          without memo.  Each layer numbers its memoized macros from 0 in
          the contexts it is given (a lifted layer gets its own). *)
  mutable lowered : lowered;
}

type 'state action = {
  label : string;
  guard : 'state ctx -> bool;
  apply : 'state ctx -> 'state;
}

val make_ctx :
  ?memo:bool -> Snapcc_hypergraph.Hypergraph.t -> inputs:inputs -> read:(int -> 'state) ->
  int -> 'state ctx
(** A context for process [self] with an empty memo.  With [~memo:false] it
    has none: every macro is computed at each use, as if each guard and
    statement call had a fresh memo.  Per-guard analyzers (the exact
    tables, the sampled lint) use such contexts, so that each call's reads
    and input uses are its own and a re-evaluation really re-evaluates. *)

val memo_int : 'state ctx -> int -> ('state ctx -> int) -> int
(** [memo_int ctx slot f]: [f ctx], computed on the first call per context
    and slot (at every call in a context without memo).  [f] must be a
    function of the configuration and inputs the context sees, never
    return [min_int], and be a closure that already exists (a function
    defined once per layer), so a call allocates nothing. *)

val memo_bool : 'state ctx -> int -> ('state ctx -> bool) -> bool
(** {!memo_int} for a predicate. *)

val first_enabled : 'state action array -> 'state ctx -> int
(** The backwards priority scan of §2.2: the index of the highest-priority
    (last-listed) action whose guard holds in [ctx], [-1] when none does.
    Every guard of the scan sees the same context, hence the same memo.
    The one scan over guard closures every tier runs. *)

type ('outer, 'inner) lift
(** An embedding of a component algorithm's state into a composed state
    (the fair composition [CC ∘ TC]). *)

val lift :
  get:('outer -> 'inner) -> set:('outer -> 'inner -> 'outer) -> ('outer, 'inner) lift

val lower : ('outer, 'inner) lift -> 'outer ctx -> 'inner ctx
(** The component's view of an outer context: reads go through [get] (and
    so through the outer [read]).  Built on the first call per outer
    context and cached in it. *)

val lift_action : ('outer, 'inner) lift -> 'inner action -> 'outer action
(** Embeds a component action; its guard and statement run on {!lower}. *)

module type ALGO = sig
  type state

  val name : string
  val pp_state : Format.formatter -> state -> unit
  val equal_state : state -> state -> bool

  val init : Snapcc_hypergraph.Hypergraph.t -> int -> state
  (** A canonical well-initialized state. *)

  val random_init :
    Snapcc_hypergraph.Hypergraph.t -> Random.State.t -> int -> state
  (** An {e arbitrary} state drawn over the whole state domain: the
      post-transient-fault configurations of the snap-stabilization
      definition (§2.5). *)

  val actions : Snapcc_hypergraph.Hypergraph.t -> state action list
  (** In code order; the last action has the highest priority. *)

  val observe :
    Snapcc_hypergraph.Hypergraph.t -> state array -> int -> Obs.t
end

(** Hooks of the packed-configuration fast path (engine-agnostic closures,
    produced by [Snapcc_mc.Packed] — this library cannot see the checker).
    A packed configuration is the vector of dense per-process state ids of
    the interned declared domains; [pk_entry] looks a (mode, process,
    configuration) up in the exact guard/footprint tables and returns
    [-1] (nothing enabled), [-2] (unavailable: no stored table, or an
    escapee id in the support — the caller must fall back to the guard
    closures), or a packed entry whose action index and successor id
    {!entry_act} / {!entry_succ} decode. *)
type 'state packed = {
  pk_entry : mode:int -> proc:int -> int array -> int;
  pk_intern : int -> 'state -> int;
      (** canonicalize + intern a state, assigning escapee ids beyond the
          domain; raises [Failure] on id-headroom overflow, which consumers
          treat as "disable the fast path for the rest of the run" *)
  pk_support : int -> int array;
      (** processes read by the table of [p] (ascending, includes [p]) *)
  pk_built : int -> bool;  (** a stored table exists for the process *)
}

type 'state packing = {
  hooks : 'state packed option;  (** what to pass the engine *)
  path : string;  (** ["packed"] or ["closure"] *)
  reason : string;  (** why, for the run summary *)
}

val pack : n:int -> requested:bool -> (unit -> 'state packed) -> 'state packing
(** The one startup decision of the table-driven fast path, shared by every
    command that offers it: unless [requested] is false, [build] the hooks
    for an [n]-process topology.  A build that fails (the tables bit-pack
    at most 16 processes) or that stores no table at all yields the
    closure path; either way [path]/[reason] say what serves the run. *)

val entry_act : int -> int
val entry_succ : int -> int
(** Field accessors of a packed entry [>= 0] (the [Snapcc_mc.Tables]
    encoding, duplicated here so the runtime needs no checker dependency —
    pinned against drift by the packed parity tests). *)

val mode_of : inputs -> int -> int
(** The uniform input mode a process experiences under per-process inputs:
    bit 0 = [request_in p], bit 1 = [request_out p], indexing
    {!input_modes}.  Exact for table lookups because the algorithms only
    consult the input predicates at [self]. *)

type step_report = {
  step : int;  (** 0-based index of the step just taken *)
  selected : int list;  (** processes chosen by the daemon *)
  executed : (int * string) list;  (** (process, action label) pairs *)
  neutralized : int list;
      (** enabled before the step, did not execute, disabled after (§2.2) *)
  round : int;  (** completed-round count after this step *)
  terminal : bool;  (** no process was enabled (nothing happened) *)
}
