(* Shared vocabulary of the workloads: what a run reports, the small
   statistics the metrics are made of, and the machine-speed reference
   that every reported time is normalized by. *)

let now = Span.now

(* Linear-interpolation quantile (the "inclusive" method); [nan] on an
   empty sample. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

let mb_of_words w = float w *. float (Sys.word_size / 8) /. 1048576.

(* Largest major heap this process has had, in MiB. *)
let peak_heap_mb () = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words

let heap_mb () = mb_of_words (Gc.quick_stat ()).Gc.heap_words

(* ---- Machine-speed reference ----

   The hosts this runs on share their cores: the same fixed computation
   runs up to twice as fast or slow from one minute to the next.  So the
   benchmark times a fixed reference kernel right next to the work it
   measures and reports every time as it would read on a machine where the
   kernel takes [nominal] seconds: [measured *. nominal /. kernel].  The
   kernel has two halves of about equal time — sort and scan a 16k-int
   array, then stream writes over a 2 MiB array — because the workloads
   slow down both with the core and with the memory system, and the sum
   of the two tracks them better than either half alone.  It allocates
   nothing, so the program's heap cannot slow it, and it uses no code from
   lib/, so no change to the program moves it.  Raw wall times are
   printed alongside. *)

let nominal = 0.008
let sort_n = 16_384

type buffers = {
  src : int array;
  sorted : int array;
  stream : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** outside the OCaml heap, so it does not count in [peak_heap_mb] *)
}

let buffers () =
  { src = Array.init sort_n (fun i -> ((i * 7919) + 13) land 65535);
    sorted = Array.make sort_n 0;
    stream = Bigarray.(Array1.create int c_layout (1 lsl 18)) }

let kernel b =
  let t0 = now () in
  Array.blit b.src 0 b.sorted 0 sort_n;
  Array.sort Int.compare b.sorted;
  let acc = ref 0 in
  for i = 0 to sort_n - 1 do
    acc := !acc + b.sorted.(b.sorted.(i) land (sort_n - 1))
  done;
  for pass = 1 to 16 do
    for i = 0 to Bigarray.Array1.dim b.stream - 1 do
      Bigarray.Array1.unsafe_set b.stream i (i + pass)
    done
  done;
  ignore (Sys.opaque_identity (!acc + Bigarray.Array1.get b.stream 0));
  now () -. t0

(* warmed once, so the first sample does not pay for page faults *)
let own =
  let b = buffers () in
  ignore (kernel b);
  b

let ref_samples = ref []
let pair_samples = ref []

(* One run of the kernel; its wall time, also kept in [ref_samples]. *)
let reference () =
  let dt = kernel own in
  ref_samples := dt :: !ref_samples;
  dt

(* The smc pool keeps both cores busy, so its reference runs the kernel on
   both at once: here and in a helper process, forked on first use (before
   the pool forks its workers), that has its own buffers and runs one
   kernel per byte it reads.  The mean of the two times is the sample.
   The helper exits when its command pipe closes at exit. *)
let helper =
  lazy
    (let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
     let res_r, res_w = Unix.pipe ~cloexec:true () in
     flush_all ();
     match Unix.fork () with
     | 0 ->
       Unix.close cmd_w;
       Unix.close res_r;
       let b = buffers () and one = Bytes.create 1 in
       ignore (kernel b);
       while Unix.read cmd_r one 0 1 = 1 do
         let s = Printf.sprintf "%.9f\n" (kernel b) in
         ignore (Unix.write_substring res_w s 0 (String.length s))
       done;
       Unix._exit 0
     | pid ->
       Unix.close cmd_r;
       Unix.close res_w;
       at_exit (fun () ->
           Unix.close cmd_w;
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
       (cmd_w, Unix.in_channel_of_descr res_r))

let reference_pair () =
  let cmd, results = Lazy.force helper in
  ignore (Unix.write_substring cmd "k" 0 1);
  let here = kernel own in
  let there = float_of_string (input_line results) in
  let dt = (here +. there) /. 2. in
  pair_samples := dt :: !pair_samples;
  dt

(* Median one-core kernel time over the run so far. *)
let reference_median () = median !ref_samples

(* [normalized probe] runs [probe ()], which returns a duration, between
   two runs of [kernel] (default {!reference}); returns the duration raw
   and normalized. *)
let normalized ?(kernel = reference) probe =
  let r0 = kernel () in
  let dt = probe () in
  let r1 = kernel () in
  (dt, dt *. nominal /. ((r0 +. r1) /. 2.))

(* [timed f] is [f ()] with its raw and normalized wall time. *)
let timed ?kernel f =
  let v = ref None in
  let dt, norm =
    normalized ?kernel (fun () ->
        let t0 = now () in
        v := Some (f ());
        now () -. t0)
  in
  (Option.get !v, dt, norm)

(* A stopwatch that normalizes each lap by a kernel run made right after
   it (and left out of the next lap): for long calls that offer a
   progress callback. *)
type laps = { mutable since : float; mutable raw_s : float; mutable norm_s : float }

let laps () = { since = now (); raw_s = 0.; norm_s = 0. }

let lap l =
  let dt = now () -. l.since in
  let r = reference () in
  l.raw_s <- l.raw_s +. dt;
  l.norm_s <- l.norm_s +. (dt *. nominal /. r);
  l.since <- now ()

(* Scale a time measured in a traced run (per-layer span times) to the
   nominal machine, by the run's median kernel time. *)
let scale_to_nominal t = t *. nominal /. reference_median ()

(* Throughput over consecutive windows of [window] operations: [mark ()]
   is called after every operation; each time [window] operations have
   completed it records the window's rate, raw and normalized by a kernel
   run made right after it (and left out of the next window).  The median
   window rate keeps a burst of load from a neighbouring process out of
   the figure. *)
type windows = {
  window : int;
  mutable ops : int;
  mutable last : float;
  mutable raw : float list;
  mutable rates : float list;
}

let windows ~window = { window; ops = 0; last = now (); raw = []; rates = [] }

let mark w =
  w.ops <- w.ops + 1;
  if w.ops mod w.window = 0 then begin
    let rate = float w.window /. (now () -. w.last) in
    let r = reference () in
    w.raw <- rate :: w.raw;
    w.rates <- (rate *. r /. nominal) :: w.rates;
    w.last <- now ()
  end

let window_rate w = median w.rates

let reference_note () =
  let one what samples =
    if samples = [] then []
    else
      [ Printf.sprintf "%s median %.3f ms over %d runs" what (median samples *. 1e3)
          (List.length samples) ]
  in
  ( "reference kernel",
    String.concat "; "
      (one "one core" !ref_samples @ one "both cores" !pair_samples
      @ [ Printf.sprintf "nominal %.3f ms" (nominal *. 1e3) ]) )

let window_notes w =
  [ ("raw window rate",
     Printf.sprintf "p10 %.1f  p50 %.1f  p90 %.1f /s (%d windows)" (quantile 0.1 w.raw)
       (quantile 0.5 w.raw) (quantile 0.9 w.raw) (List.length w.raw));
    reference_note () ]

(* What one workload run reports.  [metrics] are (name, value) pairs in
   the units BENCHMARK.json declares; [gates] are the named correctness
   checks; [notes] are printed but not part of the result line. *)
type report = {
  attempted : int;
  failed : int;
  gates : (string * bool) list;
  metrics : (string * float) list;
  notes : (string * string) list;
}

let ratio a b = if b = 0. then 0. else a /. b

(* Seed of the [b]-th segment (runner call, driver run) of a run: a
   deterministic function of the benchmark seed. *)
let segment_seed ~seed b = Snapcc_smc.Trial.derive ~seed b

(* [segments ~seconds f] calls [f 0], [f 1], ... until [seconds] have
   passed (at least once) and returns the results in order. *)
let segments ~seconds f =
  let deadline = now () +. seconds in
  let rec go b acc =
    let acc = f b :: acc in
    if now () >= deadline then List.rev acc else go (b + 1) acc
  in
  go 0 []
