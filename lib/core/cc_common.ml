(** Vocabulary shared by the committee-coordination algorithms. *)

module H = Snapcc_hypergraph.Hypergraph
module Obs = Snapcc_runtime.Obs

type status = Idle | Looking | Waiting | Done

let pp_status ppf s =
  Format.pp_print_string ppf
    (match s with
     | Idle -> "idle"
     | Looking -> "looking"
     | Waiting -> "waiting"
     | Done -> "done")

let to_obs_status = function
  | Idle -> Obs.Idle
  | Looking -> Obs.Looking
  | Waiting -> Obs.Waiting
  | Done -> Obs.Done

(** Edge-selection strategy used where the paper writes
    "[Pp := ε such that ε ∈ ...]": the choice is a don't-care for
    correctness, but pluggable for the ablation benches. *)
module type PARAMS = sig
  val choose_edge : H.t -> int list -> int
  (** Pick one committee among a non-empty candidate list (edge ids). *)
end

(** Deterministic default: smallest edge id. *)
module Default_params : PARAMS = struct
  let choose_edge _h = function
    | [] -> invalid_arg "choose_edge: no candidate committee"
    | e :: rest -> List.fold_left min e rest
end

(** Largest committee first: maximizes per-meeting participation. *)
module Widest_params : PARAMS = struct
  let choose_edge h = function
    | [] -> invalid_arg "choose_edge: no candidate committee"
    | e :: rest ->
      List.fold_left
        (fun best e' ->
          let size x = Array.length (H.edge_members h x) in
          if size e' > size best || (size e' = size best && e' < best) then e'
          else best)
        e rest
end

(** Static committee priorities (the §7 future-work direction "enforcing
    priorities on convening committees"): among the candidates the paper
    leaves as a don't-care, always pick a maximum-weight one.  This is a
    {e hint}, not a guarantee — only the choices that were free in the
    first place are steered — but it measurably skews convening frequency
    toward heavy committees (see the priorities experiment). *)
module Weighted_params (W : sig
  val weight : int -> int
  (** weight of a committee (edge id); larger = preferred *)
end) : PARAMS = struct
  let choose_edge _h = function
    | [] -> invalid_arg "choose_edge: no candidate committee"
    | e :: rest ->
      List.fold_left
        (fun best e' ->
          if W.weight e' > W.weight best || (W.weight e' = W.weight best && e' < best)
          then e'
          else best)
        e rest
end

(* ---- guard vocabulary ----

   Guards are the inner loop of every tier (each priority scan evaluates
   them backwards, §2.2), so they are written as loops over the hypergraph
   that build no lists, tuples or options and compare only integers.  The
   loops visit committees and members in the same order, and stop at the
   same point, as the set-builder reading of the macros would: a guard's
   read set (which the exact tables record) is the macro's. *)

(* [P = Some e]. *)
let points_to ptr e = match ptr with Some x -> x = e | None -> false

let mem (x : int) xs =
  let i = ref 0 in
  while !i < Array.length xs && xs.(!i) <> x do incr i done;
  !i < Array.length xs

(* [e ∈ Ep]. *)
let incident_to h p e = mem e (H.incident h p)

(* The one of [best] and [q] with the larger identifier, where [best = -1]
   stands for the empty set (the paper breaks symmetry with [max] over
   identifiers). *)
let max_id h best q = if best < 0 || H.id h q > H.id h best then q else best

(* Every member [q] of [e], in order, passes [test read e q]. *)
let all_members test h read e =
  let ms = H.edge_members h e in
  let i = ref 0 in
  while !i < Array.length ms && test read e ms.(!i) do incr i done;
  !i = Array.length ms

(* Some committee [e ∈ Ep], in order, has {!all_members}. *)
let exists_committee test h read p =
  let es = H.incident h p in
  let i = ref 0 in
  while !i < Array.length es && not (all_members test h read es.(!i)) do incr i done;
  !i < Array.length es
