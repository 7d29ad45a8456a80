(* In-memory wall-clock spans for the traced benchmark runs.

   A span is recorded around one call into a layer's public function
   (the benchmark's own files open and close it; nothing inside lib/ is
   instrumented).  Each span has a kind (its name), a start, an end, the
   span that encloses it and the operation it belongs to (a driver step,
   an smc trial, the exhaustive check).  Every span feeds its kind's
   aggregate — count, total time, self time (duration minus the part its
   child spans cover) and, for kinds created with [~samples:true], the
   individual durations.  The first [cap] spans are also kept verbatim and
   can be written out as a Chrome trace-event file when the run ends. *)

let now = Unix.gettimeofday

type kind = {
  name : string;
  id : int;
  keep : bool;
  mutable count : int;
  mutable total : float;
  mutable self : float;
  mutable samples : float list;
}

type frame = {
  fk : kind;
  start : float;
  mutable child : float;
  slot : int;  (** index of the verbatim record, or [-1] past [cap] *)
}

type t = {
  mutable kinds : kind list;  (** newest first *)
  mutable stack : frame list;
  mutable op : int;
  cap : int;
  mutable n : int;
  starts : float array;
  stops : float array;
  kind_of : int array;
  parent : int array;
  op_of : int array;
}

let create ?(cap = 50_000) () =
  { kinds = []; stack = []; op = 0; cap; n = 0;
    starts = Array.make cap 0.; stops = Array.make cap 0.;
    kind_of = Array.make cap 0; parent = Array.make cap (-1);
    op_of = Array.make cap 0 }

let kind ?(samples = false) t name =
  let k =
    { name; id = List.length t.kinds; keep = samples; count = 0; total = 0.;
      self = 0.; samples = [] }
  in
  t.kinds <- k :: t.kinds;
  k

(* Spans opened from here on belong to operation [op]. *)
let set_op t op = t.op <- op

let enter t k =
  let slot =
    if t.n < t.cap then begin
      let s = t.n in
      t.n <- s + 1;
      t.kind_of.(s) <- k.id;
      t.op_of.(s) <- t.op;
      t.parent.(s) <- (match t.stack with f :: _ -> f.slot | [] -> -1);
      s
    end
    else -1
  in
  let start = now () in
  if slot >= 0 then t.starts.(slot) <- start;
  t.stack <- { fk = k; start; child = 0.; slot } :: t.stack

let leave t =
  let stop = now () in
  match t.stack with
  | [] -> invalid_arg "Span.leave: no open span"
  | f :: rest ->
    t.stack <- rest;
    let d = stop -. f.start in
    let k = f.fk in
    k.count <- k.count + 1;
    k.total <- k.total +. d;
    k.self <- k.self +. (d -. f.child);
    if k.keep then k.samples <- d :: k.samples;
    if f.slot >= 0 then t.stops.(f.slot) <- stop;
    (match rest with p :: _ -> p.child <- p.child +. d | [] -> ())

let time t k f =
  enter t k;
  match f () with
  | v -> leave t; v
  | exception e -> leave t; raise e

(* Chrome trace-event ("catapult") export of the verbatim spans: one
   complete ("X") event per span, microsecond timestamps relative to the
   first span, the operation and parent slot in [args]. *)
let write_catapult t file =
  let names = Array.make (List.length t.kinds) "" in
  List.iter (fun k -> names.(k.id) <- k.name) t.kinds;
  let origin = if t.n > 0 then t.starts.(0) else 0. in
  let b = Buffer.create (t.n * 120) in
  Buffer.add_string b "{\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then Buffer.add_char b ',';
    Printf.bprintf b
      "{\"name\":%S,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
       \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"slot\":%d,\"parent\":%d,\"op\":%d}}"
      names.(t.kind_of.(i))
      ((t.starts.(i) -. origin) *. 1e6)
      ((t.stops.(i) -. t.starts.(i)) *. 1e6)
      i t.parent.(i) t.op_of.(i)
  done;
  Buffer.add_string b "]}\n";
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc b)

let recorded t = t.n

let total_spans t = List.fold_left (fun a k -> a + k.count) 0 t.kinds
