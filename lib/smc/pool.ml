(* Parallel trial execution on OCaml 5 domains.

   Slices are contiguous and in index order, so concatenating their
   results re-creates the sequential list; each record is a pure function
   of its trial index (Trial.derive), so the merge is equal for every
   worker count — asserted by the tests and the bench.

   Worker domains are kept across calls: a domain that ends hands its heap
   to the caller, and on OCaml 5.1 the caller's heap then grew with every
   call (smc benchmark: 8 to 18 MB over 50 calls at 0.35 MB live).  The
   domain count is capped at the core count: the minor GC stops every
   domain at once, so oversubscribed domains run slower than one. *)

(* A worker's mailbox: [job] is [Some] from submission until it has run. *)
type worker = { lock : Mutex.t; changed : Condition.t; mutable job : (unit -> unit) option }

let serve w =
  Mutex.lock w.lock;
  while true do
    match w.job with
    | None -> Condition.wait w.changed w.lock
    | Some job ->
      Mutex.unlock w.lock;
      job ();
      Mutex.lock w.lock;
      w.job <- None;
      Condition.broadcast w.changed
  done

(* Minor heap, in words, of every domain in a parallel run (8 MB).  With
   the default 256k words each domain is collected, and promotes its live
   trial state, whenever any domain fills its heap, so heap size and speed
   follow how the domains interleave.  On a 2-core host, over smc
   benchmark runs alternating with a busy loop, this cut the peak heap's
   interquartile spread from 1.3 to 0.7 MB, and trials/s under the busy
   loop rose from ~50% to ~83% of the uncontended rate. *)
let minor_words = 1 lsl 20

let with_minor_heap f =
  let saved = (Gc.get ()).Gc.minor_heap_size in
  let set words = Gc.set { (Gc.get ()) with Gc.minor_heap_size = words } in
  if saved >= minor_words then f ()
  else (set minor_words; Fun.protect ~finally:(fun () -> set saved) f)

let pool = ref [||]

(* One parallel run at a time: a concurrent or nested call runs
   sequentially instead of waiting. *)
let busy = Mutex.create ()

let worker k =
  while Array.length !pool < k do
    let w = { lock = Mutex.create (); changed = Condition.create (); job = None } in
    ignore (Domain.spawn (fun () -> with_minor_heap (fun () -> serve w)));
    pool := Array.append !pool [| w |]
  done;
  !pool.(k - 1)

let submit w job =
  Mutex.protect w.lock (fun () -> w.job <- Some job; Condition.broadcast w.changed)

let await w =
  Mutex.protect w.lock (fun () ->
      while Option.is_some w.job do Condition.wait w.changed w.lock done)

let run ~workers ~offset ~count f =
  let slices = max 1 (min (Domain.recommended_domain_count ()) (min workers count)) in
  if slices = 1 || not (Mutex.try_lock busy) then List.init count (fun i -> f (offset + i))
  else
    Fun.protect ~finally:(fun () -> Mutex.unlock busy) @@ fun () ->
    with_minor_heap @@ fun () ->
    let base = count / slices and rem = count mod slices in
    let slice s =
      let lo = offset + (s * base) + min s rem in
      try Ok (List.init (base + if s < rem then 1 else 0) (fun i -> f (lo + i)))
      with e -> Error e
    in
    let results = Array.make slices (Ok []) in
    (* spawn before submitting, so a failed spawn leaves no slice running *)
    let ws = List.init (slices - 1) (fun s -> worker (s + 1)) in
    List.iteri (fun s w -> submit w (fun () -> results.(s + 1) <- slice (s + 1))) ws;
    results.(0) <- slice 0;
    List.iter await ws;
    List.concat_map (function Ok l -> l | Error e -> raise e) (Array.to_list results)
