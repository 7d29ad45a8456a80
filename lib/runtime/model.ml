type inputs = {
  request_in : int -> bool;
  request_out : int -> bool;
}

let no_inputs = { request_in = (fun _ -> false); request_out = (fun _ -> false) }
let always_in = { request_in = (fun _ -> true); request_out = (fun _ -> false) }

let input_modes =
  [| ("quiet", no_inputs);
     ("in", always_in);
     ("out", { request_in = (fun _ -> false); request_out = (fun _ -> true) });
     ("in+out", { request_in = (fun _ -> true); request_out = (fun _ -> true) });
  |]

type lowered = ..
type lowered += Not_lowered

type 'state ctx = {
  h : Snapcc_hypergraph.Hypergraph.t;
  inputs : inputs;
  read : int -> 'state;
  self : int;
  memo : int array;
  mutable lowered : lowered;
}

type 'state action = {
  label : string;
  guard : 'state ctx -> bool;
  apply : 'state ctx -> 'state;
}

let unknown = min_int

(* The memo is a literal, allocated inline (a context is made per process
   scan); [[||]] is the static empty array: no memo. *)
let make_ctx ?(memo = true) h ~inputs ~read self =
  let u = unknown in
  { h; inputs; read; self;
    memo = (if memo then [| u; u; u; u; u; u; u; u |] else [||]);
    lowered = Not_lowered }

let[@inline] memo_int ctx slot f =
  let m = ctx.memo in
  if Array.length m = 0 then f ctx
  else begin
    let v = m.(slot) in
    if v <> unknown then v
    else begin
      let v = f ctx in
      m.(slot) <- v;
      v
    end
  end

let[@inline] memo_bool ctx slot f =
  let m = ctx.memo in
  if Array.length m = 0 then f ctx
  else begin
    let v = m.(slot) in
    if v <> unknown then v <> 0
    else begin
      let b = f ctx in
      m.(slot) <- Bool.to_int b;
      b
    end
  end

(* Highest-priority enabled action index, -1 if none: the paper gives
   priority to actions appearing later in the code (§2.2), hence the
   backwards scan. *)
let first_enabled actions ctx =
  let i = ref (Array.length actions - 1) in
  while !i >= 0 && not (actions.(!i).guard ctx) do decr i done;
  !i

type ('outer, 'inner) lift = {
  lower : 'outer ctx -> 'inner ctx;
  set : 'outer -> 'inner -> 'outer;
}

(* The lowered context is cached in the outer one under a constructor
   private to this lift, so every lifted guard of a scan, and the outer
   layer's own calls into the inner one, share one inner context (and so
   one inner memo, or none when the outer context has none). *)
let lift (type o i) ~(get : o -> i) ~set : (o, i) lift =
  let module L = struct type lowered += Lowered of i ctx end in
  let lower (ctx : o ctx) =
    match ctx.lowered with
    | L.Lowered c -> c
    | _ ->
      let read = ctx.read in
      let c =
        make_ctx ~memo:(Array.length ctx.memo > 0) ctx.h ~inputs:ctx.inputs
          ~read:(fun p -> get (read p)) ctx.self
      in
      ctx.lowered <- L.Lowered c;
      c
  in
  { lower; set }

let[@inline] lower l ctx = l.lower ctx

let lift_action l action =
  {
    label = action.label;
    guard = (fun ctx -> action.guard (l.lower ctx));
    apply = (fun ctx -> l.set (ctx.read ctx.self) (action.apply (l.lower ctx)));
  }

module type ALGO = sig
  type state

  val name : string
  val pp_state : Format.formatter -> state -> unit
  val equal_state : state -> state -> bool
  val init : Snapcc_hypergraph.Hypergraph.t -> int -> state
  val random_init : Snapcc_hypergraph.Hypergraph.t -> Random.State.t -> int -> state
  val actions : Snapcc_hypergraph.Hypergraph.t -> state action list
  val observe : Snapcc_hypergraph.Hypergraph.t -> state array -> int -> Obs.t
end

type step_report = {
  step : int;
  selected : int list;
  executed : (int * string) list;
  neutralized : int list;
  round : int;
  terminal : bool;
}

(* The table-driven fast path is produced by [Snapcc_mc.Packed] (this
   library cannot depend on the checker, so the hooks are closures).  A
   packed configuration is the vector of dense per-process state ids of the
   interned declared domains; [pk_entry] is the packed guard/footprint
   lookup with the [Snapcc_mc.Tables] conventions: [-1] = nothing enabled,
   [-2] = unavailable (no stored table for the process, or an escapee id in
   its support), [>= 0] = packed (action, changes, reads, successor id). *)
type 'state packed = {
  pk_entry : mode:int -> proc:int -> int array -> int;
  pk_intern : int -> 'state -> int;
      (* canonicalize + intern; raises [Failure] when escapees overflow the
         id headroom, which consumers treat as "fall back to closures" *)
  pk_support : int -> int array;
  pk_built : int -> bool;  (* stored table available for the process *)
}

type 'state packing = { hooks : 'state packed option; path : string; reason : string }

let pack ~n ~requested build =
  let closure reason = { hooks = None; path = "closure"; reason } in
  if not requested then closure "closure engine requested"
  else
    match build () with
    | exception Failure msg -> closure ("no tables: " ^ msg)
    | pk ->
      let k = List.length (List.filter pk.pk_built (List.init n Fun.id)) in
      if k = 0 then closure "no process table fits the startup cap"
      else
        { hooks = Some pk; path = "packed";
          reason =
            (if k = n then "tables cover every process"
             else Printf.sprintf "tables cover %d of %d processes; closures serve the rest" k n) }

let entry_act e = e land 0x3f
let entry_succ e = e lsr 23

(* Per-process uniform input mode, indexing [input_modes]: bit 0 =
   [request_in self], bit 1 = [request_out self].  Sound for table lookups
   because the tables enumerate guards under uniform modes and the
   algorithms only consult the input predicates at [self] (checked by
   [ccsim lint]'s footprint analysis). *)
let mode_of inputs p =
  (if inputs.request_in p then 1 else 0)
  lor if inputs.request_out p then 2 else 0
