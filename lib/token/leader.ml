(** Self-stabilizing leader election and BFS spanning tree (min-identifier).

    Classic construction (Dolev–Israeli–Moran style) with the distance bound
    [dist < n] killing ghost identifiers: each process maintains its claimed
    leader identifier, its distance to it, its parent, and — so that the
    Euler-tour token circulation can be evaluated locally — an explicit
    ordered list of its tree children (children cannot read their siblings'
    states, so the parent publishes the list). *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model

type t = {
  lead : int;  (** claimed leader identifier *)
  dist : int;  (** claimed distance to the leader *)
  par : int;  (** parent vertex index, [-1] when claiming to be root *)
  childs : int array;  (** published ordered (ascending) tree children *)
}

let pp ppf s =
  Format.fprintf ppf "lead=%d dist=%d par=%d childs=[%s]" s.lead s.dist s.par
    (String.concat "," (Array.to_list (Array.map string_of_int s.childs)))

let equal (a : t) b =
  a.lead = b.lead && a.dist = b.dist && a.par = b.par && a.childs = b.childs

(* Lexicographically minimal (lead, dist, parent) claim available to [p]:
   either root itself, or adopt a neighbor's claim at distance + 1, provided
   the bound [dist + 1 < n] holds (ghost-leader elimination).  A claim is
   named by its parent: the neighbor [q] whose claim is adopted, or [-1]
   for the root claim [(id p, 0, -1)] (see {!claim_lead}, {!claim_dist}).
   Every neighbor is read. *)
let candidate h read p =
  let n = H.n h in
  let nbrs = H.neighbors h p in
  let best = ref (-1) and lead = ref (H.id h p) and dist = ref 0 in
  for i = 0 to Array.length nbrs - 1 do
    let q = nbrs.(i) in
    let sq : t = read q in
    if sq.dist >= 0 && sq.dist + 1 < n then begin
      let l = sq.lead and d = sq.dist + 1 in
      (* prefer the self-root claim on full ties (it has par = -1 < q) *)
      if l < !lead || (l = !lead && (d < !dist || (d = !dist && q < !best))) then begin
        best := q;
        lead := l;
        dist := d
      end
    end
  done;
  !best

let claim_lead h read p a = if a < 0 then H.id h p else (read a : t).lead
let claim_dist read a = if a < 0 then 0 else (read a : t).dist + 1

(* [q] is a tree child of [p] as [p] sees itself ([me]) *)
let is_child p (me : t) (sq : t) =
  sq.par = p && sq.lead = me.lead && sq.dist = me.dist + 1

let computed_children h read p =
  let me : t = read p in
  Array.to_list (H.neighbors h p)
  |> List.filter (fun q -> is_child p me (read q))
  |> Array.of_list

let tree_ok h read p =
  let me : t = read p in
  let a = candidate h read p in
  me.lead = claim_lead h read p a && me.dist = claim_dist read a && me.par = a

(* [childs = computed_children], without building the list: every
   neighbor is read, like [computed_children] *)
let childs_ok h read p =
  let me : t = read p in
  let nbrs = H.neighbors h p in
  let ok = ref true and k = ref 0 in
  for i = 0 to Array.length nbrs - 1 do
    let q = nbrs.(i) in
    if is_child p me (read q) then begin
      ok := !ok && !k < Array.length me.childs && me.childs.(!k) = q;
      incr k
    end
  done;
  !ok && !k = Array.length me.childs

let stable h read = List.for_all (fun p -> tree_ok h read p && childs_ok h read p) (List.init (H.n h) Fun.id)

let is_root h s ~self = s.dist = 0 && s.lead = H.id h self

(* Globally correct BFS tree rooted at the minimum identifier, used as the
   canonical initial configuration. *)
let init h =
  let n = H.n h in
  let root = ref 0 in
  for v = 1 to n - 1 do
    if H.id h v < H.id h !root then root := v
  done;
  let dist = Array.make n max_int and par = Array.make n (-1) in
  dist.(!root) <- 0;
  let queue = Queue.create () in
  Queue.add !root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun q ->
        if dist.(q) > dist.(v) + 1 then begin
          dist.(q) <- dist.(v) + 1;
          par.(q) <- v;
          Queue.add q queue
        end
        else if dist.(q) = dist.(v) + 1 && par.(q) > v then par.(q) <- v)
      (H.neighbors h v)
  done;
  (* min-index parent among valid witnesses, matching [candidate] *)
  for v = 0 to n - 1 do
    if v <> !root then begin
      let best = ref max_int in
      Array.iter
        (fun q -> if dist.(q) = dist.(v) - 1 && q < !best then best := q)
        (H.neighbors h v);
      par.(v) <- !best
    end
  done;
  fun p ->
    let childs =
      Array.to_list (H.neighbors h p)
      |> List.filter (fun q -> par.(q) = p)
      |> Array.of_list
    in
    { lead = H.id h !root; dist = dist.(p); par = par.(p); childs }

let random_init h rng p =
  let n = H.n h in
  let nbrs = H.neighbors h p in
  let max_id = Array.fold_left max 0 (Array.init n (H.id h)) in
  let childs =
    Array.to_list nbrs
    |> List.filter (fun _ -> Random.State.bool rng)
    |> Array.of_list
  in
  {
    lead = Random.State.int rng (max_id + 2);
    dist = Random.State.int rng n;
    par =
      (if Random.State.bool rng || Array.length nbrs = 0 then -1
       else nbrs.(Random.State.int rng (Array.length nbrs)));
    childs;
  }

let actions h : t Model.action list =
  [ { Model.label = "LE-childs";
      guard = (fun ctx -> not (childs_ok h ctx.Model.read ctx.Model.self));
      apply =
        (fun ctx ->
          { (ctx.Model.read ctx.Model.self) with
            childs = computed_children h ctx.Model.read ctx.Model.self }) };
    { Model.label = "LE-tree";
      guard = (fun ctx -> not (tree_ok h ctx.Model.read ctx.Model.self));
      apply =
        (fun ctx ->
          let read = ctx.Model.read and p = ctx.Model.self in
          let a = candidate h read p in
          { (read p) with lead = claim_lead h read p a; dist = claim_dist read a; par = a }) };
  ]

(** Standalone wrapper for testing stabilization in isolation. *)
module Algo : Model.ALGO with type state = t = struct
  type state = t

  let name = "leader-election"
  let pp_state = pp
  let equal_state = equal
  let init h = init h
  let random_init h rng p = random_init h rng p
  let actions = actions

  let observe h states p =
    let s = states.(p) in
    Snapcc_runtime.Obs.make
      ~has_token:(is_root h s ~self:p)
      Snapcc_runtime.Obs.Looking
end
