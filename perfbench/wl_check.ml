(* check-triangle3: `ccsim check -a cc1' — exhaustive verification of
   cc1 ∘ vring on the conflict triangle from all 884,736 initial
   configurations, with the guard tables on (the default packed engine,
   built under the command's cap of 8 x its 8M-state budget), followed by
   the progress analysis.  The inputs do not depend on the seed.

   Set-up is the table build.  One operation is the exploration plus the
   progress analysis; it takes longer than a typical measurement window,
   so a run makes at least one and starts another only if it fits. *)

open Common
module H = Snapcc_hypergraph.Hypergraph
module Fairness = Snapcc_mc.Fairness

module S =
  (val (Option.get (Snapcc_mc.Systems.find "cc1")).Snapcc_mc.Systems.make "vring"
      : Snapcc_mc.System.S)

module Tb = Snapcc_mc.Tables.Make (S)
module Ex = Snapcc_mc.Explore.Make (S)

let max_states = 8_000_000
let expected_states = 884_736
let expected_transitions = 20_532_592
let topology () = Snapcc_hypergraph.Families.by_name "triangle3"
let build_tables h = Tb.build ~cap:(max 1 max_states * 8) h

let explore ?on_progress ~tables h =
  Ex.explore ?on_progress ~tables ~max_configs:max_states ~roots:`Domain
    ~stop_on_first:true h

let analyze h res =
  Fairness.analyze ~n:(H.n h) ~n_configs:(Ex.n_configs res)
    ~succs:(Ex.succs_inout res) ~convenes:(Ex.convening res)
    ~enabled_mask:(Ex.enabled_inout res)
    ~committee_waiting:(Ex.committee_waiting res) ()

(* The verdict `ccsim check' prints as PASS, with today's exact counts. *)
let gates res verdict =
  [ ("exploration complete", Ex.complete res);
    (Printf.sprintf "%d states" expected_states, Ex.n_configs res = expected_states);
    (Printf.sprintf "%d transitions" expected_transitions,
     Ex.n_transitions res = expected_transitions);
    ("no safety violation", Ex.violations res = []);
    ("domain closed (no escapee)", Ex.escapees res = []);
    ("no deadlock", verdict.Fairness.deadlocks = []);
    ("no livelock", verdict.Fairness.livelocks = []) ]

(* One check: exploration, then the progress analysis.  The exploration's
   progress callback (every few ten-thousand states) times a lap; returns
   the gates, the exploration laps and the analysis laps. *)
let check ?(wrap_explore = fun f -> f ()) ?(wrap_analyze = fun f -> f ()) ~tables h =
  let ex = laps () in
  let on_progress ~configs:_ ~transitions:_ = lap ex in
  let res = wrap_explore (fun () -> explore ~on_progress ~tables h) in
  lap ex;
  let an = laps () in
  let g =
    if Ex.complete res then gates res (wrap_analyze (fun () -> analyze h res))
    else [ ("exploration complete", false) ]
  in
  lap an;
  (g, res, ex, an)

(* Set-up [k] times, keeping only the last tables alive; the median raw
   and normalized build times. *)
let setup ~k =
  let rec go i times =
    let tables, raw, norm = timed (fun () -> build_tables (topology ())) in
    let times = (raw, norm) :: times in
    if i = k then (median (List.map fst times), median (List.map snd times), tables)
    else go (i + 1) times
  in
  go 1 []

let measure ~seed:_ ~seconds =
  let raw_setup, setup_s, tables = setup ~k:3 in
  let h = topology () in
  let t_start = now () in
  let rec go acc =
    let t0 = now () in
    let g, _, ex, an = check ~tables h in
    let dt = now () -. t0 in
    let acc = (g, ex.raw_s +. an.raw_s, ex.norm_s +. an.norm_s) :: acc in
    if now () -. t_start +. dt <= seconds then go acc else List.rev acc
  in
  let ops = go [] in
  let gates = List.concat_map (fun (g, _, _) -> g) ops in
  let failed = List.length (List.filter (fun (g, _, _) -> not (List.for_all snd g)) ops) in
  let rate f = median (List.map (fun op -> float expected_states /. f op) ops) in
  { attempted = List.length ops;
    failed;
    gates;
    metrics =
      [ ("setup_s", setup_s);
        ("ops_per_s", rate (fun (_, _, norm) -> norm));
        ("peak_heap_mb", peak_heap_mb ()) ];
    notes =
      [ ("ops_per_s is",
         "states_per_s: explored states per second of exploration + progress analysis");
        ("checks", string_of_int (List.length ops));
        ("tables", if Tb.built tables then "built" else "partial");
        ("raw setup_s", Printf.sprintf "%.3f" raw_setup);
        ("raw states_per_s", Printf.sprintf "%.1f" (rate (fun (_, raw, _) -> raw)));
        reference_note () ] }

let traced ~seed:_ ~seconds:_ sp =
  let k_tables = Span.kind sp "mc_tables.build" in
  let k_explore = Span.kind sp "mc_explore.explore" in
  let k_fair = Span.kind sp "mc_fairness.analyze" in
  let h = topology () in
  (* untraced: the same calls, timed by laps *)
  let tables, _, untraced_tables = timed (fun () -> build_tables h) in
  let g_untraced, _, ex, an = check ~tables h in
  let untraced_wall = untraced_tables +. ex.norm_s +. an.norm_s in
  Gc.compact ();
  let tables, _, traced_tables =
    timed (fun () -> Span.time sp k_tables (fun () -> build_tables h))
  in
  let heap0 = heap_mb () in
  let heap1 = ref heap0 in
  let wrap_explore f =
    let res = Span.time sp k_explore f in
    heap1 := heap_mb ();
    res
  in
  let g_traced, res, ex, an =
    check ~wrap_explore ~wrap_analyze:(Span.time sp k_fair) ~tables h
  in
  let traced_wall = traced_tables +. ex.norm_s +. an.norm_s in
  let ok g = List.for_all snd g in
  { attempted = 2;
    failed = (if ok g_untraced then 0 else 1) + (if ok g_traced then 0 else 1);
    gates = g_traced;
    metrics =
      [ ("mc_tables.build_s", traced_tables);
        ("mc_explore.s", ex.norm_s);
        ("mc_explore.transitions_per_state",
         float (Ex.n_transitions res) /. float (max 1 (Ex.n_configs res)));
        ("mc_explore.heap_mb", !heap1 -. heap0);
        ("mc_fairness.s", an.norm_s);
        ("tracing_overhead", ratio traced_wall untraced_wall) ];
    notes =
      [ ("mc_explore.heap_mb is", "major-heap growth across the exploration");
        ("tracing_overhead base",
         "traced tables + exploration + analysis / the same untraced");
        ("raw mc_explore.s", Printf.sprintf "%.3f" ex.raw_s);
        reference_note () ] }
