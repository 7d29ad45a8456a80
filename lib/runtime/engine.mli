(** Simulation engine: executes an algorithm under a daemon, maintaining
    round accounting (§2.2), weak-fairness counters and fault injection.

    The engine is deliberately step-wise: callers (workloads, monitors,
    experiments) supply the input predicates for each step and observe the
    resulting {!Model.step_report}, so every measurement in the repository
    is made against the exact semantics of the model. *)

module Make (A : Model.ALGO) : sig
  type t

  val create :
    ?seed:int ->
    ?check_locality:bool ->
    ?init:[ `Canonical | `Random | `States of A.state array ] ->
    ?packed:A.state Model.packed ->
    daemon:Daemon.t ->
    Snapcc_hypergraph.Hypergraph.t ->
    t
  (** [packed] (see {!Model.packed}, produced by [Snapcc_mc.Packed])
      enables the table-driven fast path: guard scans become packed-entry
      lookups keyed by a dense-id mirror of the configuration, with
      successor ids written straight from the tables.  Statements still
      execute as closures against the true states, so a packed run is
      {e trace-identical} to the closure run of the same seed — same
      enabled sets, same daemon draws, same reports (asserted by the parity
      test suite).  Processes without a stored table fall back to the
      closure scan cell by cell, and the whole fast path degrades to
      closures if the interner ever overflows (never silently wrong).

      [check_locality] (default [false]) makes every state read performed by
      a guard or statement of process [p] assert (raising [Failure]) that
      the target is [p] or a neighbor of [p] — a dynamic check that the
      algorithm respects the locally-shared-variable model.  It only sees
      the reads of the one execution being run; the static pass
      ([Snapcc_statics.Analyze], surfaced as [ccsim lint]) evaluates every
      action against enumerated and random configurations and checks the
      same locality condition on the recorded read-sets, along with
      write-ownership and determinism.  Because {!step} re-evaluates only
      the guards whose reads changed, [check_locality] checks only the
      evaluations that actually run (and the statements): use it as a
      cheap guard rail inside long simulations, and the static pass as the
      CI gate.  [`Random] draws each process state with [A.random_init]
      (arbitrary initial configuration of §2.5). *)

  val engine_kind : t -> [ `Packed | `Closure ]
  (** The path currently in effect — [`Closure] when no tables were given
      or after an interner overflow dropped the fast path. *)

  val hypergraph : t -> Snapcc_hypergraph.Hypergraph.t
  val states : t -> A.state array
  (** A copy of the current configuration. *)

  val state : t -> int -> A.state
  val set_states : t -> A.state array -> unit
  val obs : t -> Obs.t array
  val steps_taken : t -> int
  val rounds : t -> int
  (** Number of completed rounds. *)

  val enabled : t -> inputs:Model.inputs -> int list
  (** Processes with an enabled action, ascending — always a full scan of
      every guard, independent of {!step}'s cached set: the reference
      oracle the incremental set is tested against. *)

  val is_terminal : t -> inputs:Model.inputs -> bool
  (** [enabled t ~inputs = []] (a full scan). *)

  val enabled_action : t -> inputs:Model.inputs -> int -> string option
  (** Label of the highest-priority enabled action of a process, if any. *)

  val step : t -> inputs:Model.inputs -> Model.step_report
  (** One step: daemon selection, atomic execution of the highest-priority
      enabled action of each selected process against the pre-step
      configuration, then round/fairness bookkeeping.  In a terminal
      configuration the report has [terminal = true] and nothing changes.

      The enabled sets are maintained {e incrementally}.  The engine caches
      each process's scan result: its priority action (or none), the
      packed successor id when a table entry served it, and the input mode
      ({!Model.mode_of}) it was computed under.  While a guard is
      evaluated, every state it reads registers the process as a reader
      of that state (a table hit registers the table's support).  After
      the statements apply, only the recorded readers of the executed
      processes are re-evaluated; the result is the post-step enabled set
      and, for processes whose input mode is unchanged, the next step's
      pre-step set.  Reads are recorded dynamically, not taken from the
      topology, so non-local oracles ([Token_vring]) are tracked soundly
      for any deterministic guard.  The sets equal a full {!enabled} scan
      and keep its ascending order, so daemon draws, reports and traces
      are those of a full-scan engine.  {!corrupt} and {!set_states}
      invalidate what they change. *)

  val run :
    t -> steps:int -> inputs_at:(t -> Model.inputs) ->
    ?on_step:(t -> Model.step_report -> unit) ->
    ?stop_when:(t -> bool) ->
    unit -> [ `Terminal | `Stopped | `Steps_exhausted ]
  (** Convenience loop: at most [steps] steps, recomputing inputs before
      each step; stops early on a terminal configuration or when
      [stop_when] holds (checked after each step). *)

  val corrupt : t -> ?rng:Random.State.t -> victims:int list -> unit -> unit
  (** Transient-fault injection: replaces the state of each victim with an
      arbitrary one ([A.random_init]), resetting round accounting the way an
      adversary would — the engine's round counter keeps increasing, but
      fairness counters restart. *)

  val rng : t -> Random.State.t

  val profile : t -> (string * int) list
  (** Cheap monotonic hot-path counters, surfaced in the bench artifacts:
      [engine_scan_hits] / [engine_scan_fallbacks] (guard scans served by
      the packed tables vs dropped to closures), [engine_guard_evals]
      (per-process guard evaluations {!step} actually ran, table lookups
      included — a full-scan engine pays [2n] plus one per selected
      process each step), [engine_applies]
      (statements executed), [engine_selects] (non-terminal daemon
      selections).  No wall-clock reads — safe on the hot path. *)
end
