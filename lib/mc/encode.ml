module H = Snapcc_hypergraph.Hypergraph

module Make (Sys : System.S) = struct
  module Tbl = Hashtbl.Make (struct
    type t = Sys.state

    let equal = Sys.equal_state
    let hash = Hashtbl.hash
  end)

  type proc_store = { tbl : int Tbl.t; states : Sys.state Vec.t }

  type t = {
    h : H.t;
    procs : proc_store array;
    dom : int array;  (** declared-domain sizes *)
    width : int array;  (** key bits per process *)
    packed : bool;  (** total bits fit one word *)
  }

  let n t = Array.length t.procs
  let domain_count t p = t.dom.(p)
  let count t p = Vec.length t.procs.(p).states
  let state t p id = Vec.get t.procs.(p).states id

  let product_size t =
    Array.fold_left (fun acc d -> acc *. float_of_int d) 1.0 t.dom

  (* Smallest [w] with [1 lsl w >= x]. *)
  let ceil_log2 x =
    let rec go w = if 1 lsl w >= x then w else go (w + 1) in
    go 0

  let raw_intern t p s =
    let ps = t.procs.(p) in
    match Tbl.find_opt ps.tbl s with
    | Some id -> id
    | None ->
      let id = Vec.length ps.states in
      if id >= 1 lsl t.width.(p) then
        failwith
          (Printf.sprintf
             "Mc.Encode: process %d exceeded %d interned states (declared \
              domain %d): the domain declaration is not remotely closed"
             p (1 lsl t.width.(p)) t.dom.(p));
      Tbl.add ps.tbl s id;
      Vec.push ps.states s;
      id

  let intern t p s = raw_intern t p (Sys.canon t.h p s)
  let find t p s = Tbl.find_opt t.procs.(p).tbl (Sys.canon t.h p s)

  let create h =
    let n = H.n h in
    let procs =
      Array.init n (fun _ -> { tbl = Tbl.create 256; states = Vec.create () })
    in
    let domains = Array.init n (fun p -> Sys.domain h p) in
    let dom = Array.map List.length domains in
    (* 4x headroom so a few escapees don't break the packing *)
    let width = Array.map (fun d -> ceil_log2 (4 * max 1 d)) dom in
    let total = Array.fold_left ( + ) 0 width in
    let t = { h; procs; dom; width; packed = total <= 62 } in
    Array.iteri
      (fun p states ->
        List.iter (fun s -> ignore (raw_intern t p (Sys.canon h p s))) states;
        (* duplicates (after canon) in the declared list shrink the domain *)
        t.dom.(p) <- count t p)
      domains;
    t

  let copy t =
    let copy_proc ps = { tbl = Tbl.copy ps.tbl; states = Vec.copy ps.states } in
    { t with procs = Array.map copy_proc t.procs }

  let escapees t =
    List.concat
      (List.init (n t) (fun p ->
           List.init
             (count t p - t.dom.(p))
             (fun i -> (p, state t p (t.dom.(p) + i)))))

  type table = { mutable cnt : int; impl : impl }
  and impl = P of (int, int) Hashtbl.t | W of (string, int) Hashtbl.t

  let table t =
    { cnt = 0;
      impl =
        (if t.packed then P (Hashtbl.create (1 lsl 16))
         else W (Hashtbl.create (1 lsl 16))) }

  let table_count tb = tb.cnt

  let key_int t (cfg : int array) =
    let key = ref 0 in
    for p = 0 to Array.length cfg - 1 do
      key := (!key lsl t.width.(p)) lor cfg.(p)
    done;
    !key

  let key_str t (cfg : int array) =
    let buf = Buffer.create 16 in
    let acc = ref 0 and bits = ref 0 in
    for p = 0 to Array.length cfg - 1 do
      acc := (!acc lsl t.width.(p)) lor cfg.(p);
      bits := !bits + t.width.(p);
      while !bits >= 8 do
        bits := !bits - 8;
        Buffer.add_char buf (Char.chr ((!acc lsr !bits) land 0xff))
      done
    done;
    if !bits > 0 then Buffer.add_char buf (Char.chr (!acc land ((1 lsl !bits) - 1)));
    Buffer.contents buf

  let find_or_add t tb cfg =
    let add_new () =
      let cid = tb.cnt in
      tb.cnt <- cid + 1;
      `New cid
    in
    match tb.impl with
    | P h -> (
      let k = key_int t cfg in
      match Hashtbl.find_opt h k with
      | Some cid -> `Existing cid
      | None ->
        let r = add_new () in
        Hashtbl.add h k (tb.cnt - 1);
        r)
    | W h -> (
      let k = key_str t cfg in
      match Hashtbl.find_opt h k with
      | Some cid -> `Existing cid
      | None ->
        let r = add_new () in
        Hashtbl.add h k (tb.cnt - 1);
        r)
end
