(** Packed-configuration engine front end.

    [Make(Sys).build] enumerates the exact guard/footprint tables of a
    system ({!Tables}) and {!Make.hooks} repackages them as the
    engine-agnostic {!Snapcc_runtime.Model.packed} closures consumed by the
    simulation engine ([Snapcc_runtime.Engine.Make.create ?packed]) and the
    message-passing engine ([Snapcc_mp.Mp_engine.Make.create ?packed]).

    The fast path is strictly an accelerator: engines keep the true typed
    states authoritative and only route {e guard scans} through the packed
    entries, so packed runs are trace-identical to closure runs (same
    enabled sets, same daemon draws — the parity test suite asserts it).
    Processes whose tables were skipped or streamed ({!Tables.Make.status})
    fall back to the guard closures cell by cell. *)

module Make (Sys : System.S) : sig
  module Tb : module type of Tables.Make (Sys)

  type t

  val build :
    ?verify:bool ->
    ?cap:int ->
    ?store_cap:int ->
    Snapcc_hypergraph.Hypergraph.t ->
    t
  (** See {!Tables.Make.build}.  A tighter [cap] turns expensive processes
      into immediate [`Skipped] statuses (closure fallback) instead of long
      enumerations — the knob callers use to bound startup cost. *)

  val tables : t -> Tb.t
  val built : t -> bool
  (** Every process has a stored table (the whole run is table-driven). *)

  val coverage : t -> float
  (** Fraction of processes with a stored table. *)

  val hooks : t -> Sys.state Snapcc_runtime.Model.packed

  val domain_hooks : t -> Sys.state Snapcc_runtime.Model.packed
  (** {!hooks} that may serve engines on several domains at once: the
      tables are shared, and each domain other than the caller interns
      escapees into its own copy of the state encoder, taken from the
      encoder as it stands at this call, and keeps only the copy made for
      the latest call.  Escapee ids are never table indices, so which
      domain interned a state first cannot change a guard lookup. *)
end
