(** Orchestration of an smc run: typed algorithm dispatch (with packed
    tables built once, in the calling domain), the domain pool, SPRT
    batching, telemetry and the report.

    The merged result is byte-reproducible for any [workers] value:
    records are pure functions of [(seed, trial)] ({!Trial}), the pool
    returns them in index order ({!Pool}), SPRT consumes fixed-size
    index batches, and only the calling domain emits telemetry. *)

type cfg = {
  algo : string;  (** cc1|cc2|cc3|cc1-vring|cc2-vring|cc3-vring *)
  topo_name : string;
  topo : Snapcc_hypergraph.Hypergraph.t;
  daemon : string;
  workload : string;
  disc : int;
  budget : int;  (** per-trial step horizon *)
  trials : int;  (** trial count (upper bound under SPRT) *)
  workers : int;
  seed : int;
  confidence : float;
  engine : [ `Packed | `Closure ];
  sprt : float option;
      (** [Some theta] switches to SPRT mode: test
          "P(stabilized within {!field-sprt_within}) >= theta" with early
          stopping, [trials] as the truncation bound *)
  sprt_delta : float;  (** indifference half-width *)
  sprt_within : int option;  (** success horizon; default [budget] *)
}

val algo_names : string list

val sprt_batch : int
(** Trials per pool invocation in SPRT mode — fixed (never derived from
    [workers]) so the consumed-trial count is worker-independent. *)

val run :
  ?telemetry:Snapcc_telemetry.Hub.t -> cfg -> (Report.t, string) result
(** Errors on unknown algo/daemon/workload names; an exception raised by
    a trial propagates (see {!Pool.run}).  With [telemetry], emits [engine] (the engine
    path the trials ran on, see [Model.pack]), [run_start], one
    [smc_trial] per record (in trial order) and a [run_end] — the JSONL
    trace is identical for any worker count. *)
