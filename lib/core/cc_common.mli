(** Vocabulary shared by the committee-coordination algorithms. *)

type status = Idle | Looking | Waiting | Done

val pp_status : Format.formatter -> status -> unit

val to_obs_status : status -> Snapcc_runtime.Obs.status

(** Edge-selection strategy used where the paper writes
    "[Pp := ε such that ε ∈ ...]": the choice is a don't-care for
    correctness, but pluggable for the ablation benches. *)
module type PARAMS = sig
  val choose_edge : Snapcc_hypergraph.Hypergraph.t -> int list -> int
  (** Pick one committee among a non-empty candidate list (edge ids).
      Raises [Invalid_argument] on an empty list.  Must be deterministic:
      the static analyzer ([lib/statics]) flags nondeterministic
      statements. *)
end

(** Deterministic default: smallest edge id. *)
module Default_params : PARAMS

(** Largest committee first: maximizes per-meeting participation. *)
module Widest_params : PARAMS

(** Static committee priorities (the §7 future-work direction "enforcing
    priorities on convening committees"): among the candidates the paper
    leaves as a don't-care, always pick a maximum-weight one. *)
module Weighted_params (W : sig
  val weight : int -> int
  (** weight of a committee (edge id); larger = preferred *)
end) : PARAMS

(** {2 Guard vocabulary}

    Loops over the hypergraph that allocate nothing, for guards to build
    the paper's macros from.  They visit committees in [Ep] order and
    members in edge order, stopping where [Array.exists]/[Array.for_all]
    would, so a guard keeps the read set of the macro it evaluates. *)

val points_to : int option -> int -> bool
(** [points_to ptr e] is [ptr = Some e], monomorphically. *)

val mem : int -> int array -> bool
(** [mem x xs]: [x] is an element of [xs]. *)

val incident_to : Snapcc_hypergraph.Hypergraph.t -> int -> int -> bool
(** [incident_to h p e] is [e ∈ Ep]. *)

val max_id : Snapcc_hypergraph.Hypergraph.t -> int -> int -> int
(** [max_id h best q]: whichever of [best] and [q] has the larger
    identifier; [best = -1] stands for "none yet". *)

val all_members :
  ('r -> int -> int -> bool) -> Snapcc_hypergraph.Hypergraph.t -> 'r -> int -> bool
(** [all_members test h read e]: [test read e q] holds for every member [q]
    of committee [e].  Pass a named function as [test], not a closure over
    locals, so that no closure is built per evaluation. *)

val exists_committee :
  ('r -> int -> int -> bool) -> Snapcc_hypergraph.Hypergraph.t -> 'r -> int -> bool
(** [exists_committee test h read p]: some [e ∈ Ep] has
    [all_members test h read e]. *)
