(** Offline aggregation: from an event stream (or a JSONL trace file) back
    to a run summary.

    [ccsim run --emit-json] and [ccsim stats FILE] both funnel through
    {!of_events} / {!to_json}, so the summary written at run time and the
    one recomputed from the JSONL artifact are identical by construction —
    same convene counts, same nearest-rank waiting-time percentiles, same
    mean concurrency. *)

type meta = {
  algo : string;
  daemon : string;
  workload : string;
  seed : int;
  n : int;
  m : int;
}

type summary = {
  steps : int;
  rounds : int;
  convenes : int;
  terminations : int;
  actions : int;  (** per-process action firings *)
  mean_concurrency : float;  (** mean simultaneous meetings per step *)
  max_concurrency : int;
  waits_completed : int;  (** served waiting spans *)
  wait_mean : float;  (** steps, over served spans *)
  wait_p50 : int;  (** nearest-rank percentiles, steps *)
  wait_p90 : int;
  wait_p95 : int;
  wait_max : int;
  violations : int;
  faults : int;
  token_handoffs : int;
  latency_histogram : (string * int) list;
      (** Delivery latencies bucketized by {!Registry.bucket_counts};
          empty when the trace carried no [net_delivered] events. *)
  outcome : string option;  (** from [run_end], if present *)
  engine : (string * string) option;
      (** [(path, reason)] from the first [engine] event, if any. *)
}

val of_events : Event.t list -> meta option * summary
(** [meta] is the first [run_start] event, if any.  [steps]/[rounds] come
    from [run_end] when present, otherwise from counting [step] events. *)

val to_json : ?meta:meta -> summary -> Json.t
(** [{"meta":{..},"engine":{..},"summary":{..,"waits":{..}}}] ([meta]
    and [engine] omitted when absent). *)

val events_of_jsonl : string list -> (Event.t list, string) result
(** Parse the lines of a JSONL trace (blank lines skipped); the error names
    the first offending line.  The raw event stream backs both {!of_jsonl}
    and the offline causal analyzer. *)

val of_jsonl : string list -> (meta option * summary, string) result
(** Aggregate the lines of a JSONL trace (blank lines skipped); the error
    names the first offending line. *)
