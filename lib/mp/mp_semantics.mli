(** The scheduler half of the state-dissemination transformation, factored
    out of {!Mp_engine} so that the in-process emulation and the networked
    runtime ({!Snapcc_net}) share {e exactly} the same semantics: same
    fairness bounds, same staleness accounting, and — decision for decision
    — the same stream of RNG draws, so a fault-free networked run replays
    an [Mp_engine] run of the same seed event for event.

    One instance owns the run's random state ({!rng}: engines draw their
    random initial states and fault values from it, which is part of the
    shared semantics), the per-process activation stamps and the per-link
    cache-refresh stamps.  Each scheduler step either
    {e activates} a process (it executes its highest-priority enabled
    action on its possibly-stale view and re-broadcasts its state) or
    {e delivers} one pending message (refreshing the receiver's cache).
    Fairness: a process idle for [16 n] steps is force-activated; a pending
    message whose target cache entry is [16 n] steps old is
    force-delivered. *)

type t

type decision =
  | Activate of int  (** process index *)
  | Deliver of int * int  (** receiver, slot in its sorted neighbor array *)

val create :
  ?deliver_bias:float ->
  seed:int ->
  Snapcc_hypergraph.Hypergraph.t ->
  t
(** [deliver_bias] (default 0.5) is the probability that a step delivers a
    pending message rather than activating a process. *)

val rng : t -> Random.State.t
(** The run's single random state.  Initialization and fault injection must
    draw from it (in a fixed order) for two runs of the same seed to make
    the same decisions. *)

val fairness_bound : t -> int

val begin_step : t -> unit
(** Open a scheduler step.  O(1): it only advances the step counter.
    Activation starvation and cache ages are step stamps (the step of the
    last {!on_activated} / {!on_cache_refresh}), so an age is the distance
    from the current step to its stamp and nothing is aged per step. *)

val decide : t -> masks:int array -> count:int -> decision
(** The decision for the step just opened, over the pending set:
    [masks.(p)] has bit [i] set iff the link into [p] from the [i]-th
    entry of its sorted neighbor array holds a deliverable message, and
    [count] is the total number of set bits.  In order:
    - the lowest process idle for at least {!fairness_bound} steps is
      activated;
    - else the greatest pending link (p, slot), lexicographically, whose
      cache entry is at least {!fairness_bound} steps old is delivered;
    - else, when [count > 0], one [float] draw below [deliver_bias]
      delivers a pending link: an [int] draw [k] below [count] picks the
      [k]-th link in descending lexicographic order;
    - else an [int] draw below [n] picks the process to activate.

    The draws are part of the shared semantics: two engines that feed the
    same pending sets to instances of the same seed get the same
    decisions.  Allocates only the returned decision. *)

val on_activated : t -> int -> unit
(** Record that the process was activated in the current step (stamps
    it: its starvation count restarts from 0). *)

val on_cache_refresh : t -> dst:int -> slot:int -> unit
(** Record that the receiver's cache entry was refreshed by a delivery in
    the current step: the age it reached joins the staleness watermark and
    its stamp restarts its age from 0. *)

val steps : t -> int
val max_staleness : t -> int
(** Largest number of steps any cache entry has gone without refresh over
    the whole run: the watermark of refreshed entries and the current age
    of every entry (O(links), meant for the end of a run). *)
