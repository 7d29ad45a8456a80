module H = Snapcc_hypergraph.Hypergraph

type decision =
  | Activate of int
  | Deliver of int * int

(* Ageing by step stamps: an activation counter or a cache age is never
   incremented; it is the distance from the current step to the stamp of
   the last reset.  [begin_step] only advances the step, and the
   staleness watermark moves when an entry is refreshed (its age then is
   the largest it reached); the ages of entries not yet refreshed are
   folded in when {!max_staleness} is read. *)
type t = {
  n : int;
  rng : Random.State.t;
  deliver_bias : float;
  last_act : int array;  (* step of p's last activation (0: none yet) *)
  last_ref : int array array;  (* step cache.(p).(i) was last refreshed *)
  mutable steps : int;
  mutable watermark : int;  (* largest age an entry reached when refreshed *)
}

let create ?(deliver_bias = 0.5) ~seed h =
  let n = H.n h in
  {
    n;
    (* the historical seeding vector of Mp_engine — part of the shared
       semantics, since replaying a run means replaying these draws *)
    rng = Random.State.make [| seed; n; 0x3b |];
    deliver_bias;
    last_act = Array.make n 0;
    last_ref = Array.init n (fun p -> Array.make (H.graph_degree h p) 0);
    steps = 0;
    watermark = 0;
  }

let rng t = t.rng
let steps t = t.steps
let fairness_bound t = 16 * t.n
let begin_step t = t.steps <- t.steps + 1

let max_staleness t =
  Array.fold_left
    (Array.fold_left (fun acc r -> max acc (t.steps - r)))
    t.watermark t.last_ref

(* the lowest process last activated at or before step [lim], or -1 *)
let starving t lim =
  let p = ref 0 in
  while !p < t.n && t.last_act.(!p) > lim do incr p done;
  if !p < t.n then !p else -1

(* the greatest pending link (p, slot), descending lexicographically, whose
   cache entry was last refreshed at or before step [lim], as [p * 64 +
   slot] (a mask has at most 63 slots), or -1 *)
let rec stale t masks lim p =
  if p < 0 then -1
  else
    let m = masks.(p) in
    let row = t.last_ref.(p) in
    let i = ref (Array.length row - 1) in
    while !i >= 0 && not (m land (1 lsl !i) <> 0 && row.(!i) <= lim) do decr i done;
    if !i >= 0 then (p * 64) + !i else stale t masks lim (p - 1)

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

(* the pending link of ascending rank [rank], (p, slot) lexicographically *)
let rec nth_pending masks p rank =
  if p >= Array.length masks then invalid_arg "Mp_semantics.decide: count exceeds masks";
  let m = masks.(p) in
  let c = popcount m in
  if rank >= c then nth_pending masks (p + 1) (rank - c)
  else begin
    let i = ref 0 and r = ref rank in
    while m land (1 lsl !i) = 0 || !r > 0 do
      if m land (1 lsl !i) <> 0 then decr r;
      incr i
    done;
    Deliver (p, !i)
  end

let decide t ~masks ~count =
  let lim = t.steps - fairness_bound t in
  match starving t lim with
  | p when p >= 0 -> Activate p
  | _ -> (
    match stale t masks lim (t.n - 1) with
    | link when link >= 0 -> Deliver (link / 64, link mod 64)
    | _ ->
      if count > 0 && Random.State.float t.rng 1.0 < t.deliver_bias then begin
        (* rank [k] of the descending order is ascending rank [count-1-k] *)
        let k = Random.State.int t.rng count in
        nth_pending masks 0 (count - 1 - k)
      end
      else Activate (Random.State.int t.rng t.n))

let on_activated t p = t.last_act.(p) <- t.steps

let on_cache_refresh t ~dst ~slot =
  let row = t.last_ref.(dst) in
  t.watermark <- max t.watermark (t.steps - row.(slot));
  row.(slot) <- t.steps
