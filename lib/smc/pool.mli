(** The parallel trial pool: one OCaml 5 domain per index slice.

    [run ~workers ~offset ~count f] evaluates
    [f offset, ..., f (offset + count - 1)] and returns the results in
    index order.  The index range is cut into
    [min workers count (Domain.recommended_domain_count ())] contiguous
    slices, in index order (at least one).  The calling domain runs slice
    0, worker domain [s] runs slice [s], and the results are concatenated
    in slice order once every slice is done.  With one slice it is a
    plain sequential map — the ground truth.

    Because each record is a pure function of its index, the merged list
    is {e equal} to the sequential one for every worker count.  [f] runs
    on several domains at once, so it must not share mutable state across
    calls (each trial builds its own engine, daemon, workload and
    monitors; see {!Runner} for the packed hooks).

    An exception raised by [f] in any slice is re-raised by [run] as
    itself, once every slice has finished; when several slices raise, the
    first in index order wins.

    Worker domains are spawned on first use and then wait, blocked, for
    the next [run] until the process exits.  A blocked domain still takes
    part in every minor collection, so after the first parallel [run],
    allocation-heavy work elsewhere in the process runs slower (by 20-25%
    for sequential smc trials on a 2-core host).  While a parallel [run]
    is in progress, every domain taking part has an 8 MB minor heap (the
    caller's own size is restored afterwards), so that the domains' minor
    collections, which stop them all, are rare.  One parallel
    [run] executes at a time: a call made while another is in progress,
    from [f] or from another domain, runs sequentially.

    On OCaml 5.1, once a domain has been spawned, the process can no
    longer fork: [fork] raises [Failure] for the rest of the process.  A
    process that forks, such as [ccsim net --fork] or the bench's
    networked part, must do so before its first parallel [run]. *)

val run : workers:int -> offset:int -> count:int -> (int -> 'a) -> 'a list
