(** The typed telemetry event model.

    One variant per observable of the paper's execution model: engine steps
    (with the daemon's selection and the resulting meeting set), per-process
    action firings, committee convene/terminate, waiting-span open/close
    (the waiting-time distribution of §3.3), monitor verdicts, token
    handoffs, fault injection/recovery, model-checker frontier progress and
    message-passing scheduler events.

    Events are {e logical}: they carry step/round stamps, never wall-clock
    time — so a JSONL trace is a deterministic function of the seed.  The
    hub ({!Hub}) wraps events into {!stamped} values carrying a sequence
    number and a monotonic timestamp; only the catapult sink ({!Sink})
    renders the timestamp. *)

type t =
  | Run_start of {
      algo : string;
      daemon : string;
      workload : string;
      seed : int;
      n : int;  (** professors *)
      m : int;  (** committees *)
      topo : string;
          (** The conflict hypergraph in [Hypergraph_io] text form, so a
              trace is self-contained for offline causal analysis (empty
              in traces predating the causal layer). *)
    }
  | Engine of { path : string; reason : string }
      (** Which path serves the run's guard scans (["packed"] tables or
          ["closure"] guards) and why, so a fallback is never silent. *)
  | Step of {
      step : int;
      round : int;
      selected : int list;  (** the daemon's choice *)
      neutralized : int list;
      meetings : int list;  (** committees meeting after the step *)
    }
  | Action of { step : int; p : int; label : string }
      (** One process fired one guarded action during the step. *)
  | Convene of { step : int; round : int; eid : int }
  | Terminate of { step : int; round : int; eid : int }
  | Wait_open of { step : int; round : int; p : int }
  | Wait_close of {
      step : int;
      round : int;
      p : int;
      waited_steps : int;
      waited_rounds : int;
    }
  | Verdict of { step : int; rule : string; detail : string }
      (** A specification monitor recorded a violation. *)
  | Token_handoff of { step : int; p : int }
      (** [p] acquired the circulating token. *)
  | Fault of { step : int; victims : int list }
  | Recover of { step : int; eid : int }
      (** First committee convened after a fault: service resumed. *)
  | Mc_frontier of { configs : int; transitions : int }
      (** Model-checker exploration progress sample. *)
  | Mp_activated of { step : int; p : int; label : string option }
  | Mp_delivered of { step : int; dst : int; src : int }
  | Net_sent of { step : int; src : int; dst : int; bytes : int }
      (** A state snapshot entered a (possibly faulty) network link. *)
  | Net_delivered of {
      step : int;
      src : int;
      dst : int;
      bytes : int;
      latency_us : int;  (** wall-clock send-to-deliver latency *)
    }
      (** The snapshot reached the receiver's cache.  The one event whose
          body is {e not} a pure function of the seed (see {!logical}). *)
  | Net_dropped of { step : int; src : int; dst : int; reason : string }
      (** The link lost the snapshot: ["drop"] (random loss), ["partition"]
          (severed link), ["overflow"] (bounded queue), or ["malformed"]
          (the receiver's strict decoder rejected the frame — a corrupted
          frame is a transient fault, never a crash). *)
  | Clock of {
      step : int;
      p : int;
      k : int;
          (** Event class: {!clock_init}, {!clock_activation},
              {!clock_delivery} or {!clock_corruption}. *)
      clock : int list;  (** [p]'s vector clock {e after} the event *)
      obs_code : int;
          (** [p]'s packed local observation after the event
              ({!Snapcc_runtime.Obs.code} in the runtime library). *)
      disc : int;  (** [p]'s remaining-discussions counter *)
    }
      (** A vector-clock stamp for one node-originated event of the
          message-passing model.  The offline causal analyzer rebuilds the
          happens-before DAG, consistent cuts and Spec verdicts from these
          events alone. *)
  | Smc_trial of {
      trial : int;  (** 0-based trial index within the smc run *)
      seed : int;  (** the derived per-trial seed (see [Snapcc_smc.Trial]) *)
      stabilized : int option;
          (** steps until the first committee convened from the corrupted
              start ([None]: never within the trial budget) *)
      convenes : int;
      violations : int;
      deadlocked : bool;
          (** the trial froze with requests pending (terminal outcome) *)
      steps : int;  (** real steps taken *)
    }
      (** One Monte-Carlo trajectory of the statistical tier
          ([ccsim smc]): the per-trial scorecard the estimators
          aggregate.  Emitted by the parent in trial order, so the JSONL
          trace is identical for any worker count. *)
  | Run_end of { outcome : string; steps : int; rounds : int }

type stamped = {
  seq : int;  (** 0-based emission index within the run *)
  t_us : int;  (** monotonic microseconds since hub creation *)
  ev : t;
}

val clock_init : int
val clock_activation : int
val clock_delivery : int
val clock_corruption : int
(** The [k] classes of {!constructor-Clock} events. *)

val kind : t -> string
(** Stable snake-case tag, e.g. ["wait_close"] — the ["ev"] field of the
    JSONL encoding. *)

val logical : t -> bool
(** Whether the event body is a pure function of the seed (true for every
    kind except [net_delivered], which carries a wall-clock latency).
    Filtering a networked JSONL trace on this predicate yields the
    byte-reproducible subset. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json} (unknown tags and missing fields are errors). *)
