(** The committees that meet before and after a monitored transition, as
    two boolean vectors indexed by committee id, filled by
    {!Snapcc_runtime.Obs.fill_meets}; {!Spec} and {!Metrics} each keep
    one.  The vector of a transition's [after] array is kept: when the
    next transition's [before] is physically that array, the vector is
    reused instead of recomputed, so a monitor fed a run evaluates the
    meeting predicate once per committee and step.  This relies on the
    monitors' contract that an observation array handed to them is never
    mutated afterwards. *)

type t

val create :
  Snapcc_hypergraph.Hypergraph.t -> initial:Snapcc_runtime.Obs.t array -> t
(** [initial] counts as the [after] of a transition before the first. *)

val advance :
  t -> before:Snapcc_runtime.Obs.t array -> after:Snapcc_runtime.Obs.t array -> unit
(** Move to the transition [before] → [after].  Allocates nothing. *)

val before : t -> bool array
(** [(before d).(e)]: committee [e] meets in the current transition's
    [before].  Owned by [d] and overwritten by the next {!advance}; read
    only. *)

val after : t -> bool array
(** [(after d).(e)]: committee [e] meets in the current transition's
    [after], with the same ownership as {!before}. *)
