(* Engine semantics: priorities, atomic steps, rounds, neutralization,
   daemon contract, locality checking, fault injection (paper §2.2). *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Model = Snapcc_runtime.Model
module Daemon = Snapcc_runtime.Daemon
module Obs = Snapcc_runtime.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A counter algorithm with two overlapping actions, to pin down the
   priority rule: the action appearing LATER in the code wins (§2.2). *)
module Toy = struct
  type state = { v : int; last : string }

  let name = "toy"
  let pp_state ppf s = Format.fprintf ppf "%d(%s)" s.v s.last
  let equal_state a b = a = b
  let init _ _ = { v = 0; last = "" }
  let random_init _ rng _ = { v = Random.State.int rng 5; last = "" }

  let actions _h =
    [ { Model.label = "low";
        guard = (fun ctx -> (ctx.Model.read ctx.Model.self).v < 3);
        apply =
          (fun ctx ->
            let s = ctx.Model.read ctx.Model.self in
            { v = s.v + 1; last = "low" }) };
      { Model.label = "high";
        guard = (fun ctx -> (ctx.Model.read ctx.Model.self).v < 3);
        apply =
          (fun ctx ->
            let s = ctx.Model.read ctx.Model.self in
            { v = s.v + 1; last = "high" }) };
    ]

  let observe _ _ _ = Obs.make Obs.Idle
end

module Toy_engine = Snapcc_runtime.Engine.Make (Toy)

let pair () = H.create ~n:2 [ [ 0; 1 ] ]

let test_priority () =
  let eng = Toy_engine.create ~daemon:(Daemon.central ()) (pair ()) in
  let report = Toy_engine.step eng ~inputs:Model.no_inputs in
  (match report.Model.executed with
   | [ (_, label) ] -> Alcotest.(check string) "later action wins" "high" label
   | _ -> Alcotest.fail "expected exactly one execution");
  check "not terminal" false report.Model.terminal

let test_termination () =
  let eng = Toy_engine.create ~daemon:Daemon.synchronous (pair ()) in
  let outcome =
    Toy_engine.run eng ~steps:100 ~inputs_at:(fun _ -> Model.no_inputs) ()
  in
  check "terminates" true (outcome = `Terminal);
  check_int "both counters saturated" 3 (Toy_engine.state eng 0).Toy.v;
  check "terminal flag" true (Toy_engine.is_terminal eng ~inputs:Model.no_inputs);
  let r = Toy_engine.step eng ~inputs:Model.no_inputs in
  check "terminal step is a no-op" true r.Model.terminal

(* Both processes copy each other's value in the same synchronous step:
   statements must read the pre-step configuration, so values swap. *)
module Swap = struct
  type state = int

  let name = "swap"
  let pp_state = Format.pp_print_int
  let equal_state = Int.equal
  let init _ p = p
  let random_init _ rng _ = Random.State.int rng 10

  let other ctx = if ctx.Model.self = 0 then 1 else 0

  let actions _h =
    [ { Model.label = "copy";
        guard = (fun ctx -> ctx.Model.read ctx.Model.self <> ctx.Model.read (other ctx));
        apply = (fun ctx -> ctx.Model.read (other ctx)) };
    ]

  let observe _ _ _ = Obs.make Obs.Idle
end

module Swap_engine = Snapcc_runtime.Engine.Make (Swap)

let test_atomic_step () =
  let eng = Swap_engine.create ~daemon:Daemon.synchronous (pair ()) in
  (* initial: [|0; 1|] *)
  let _ = Swap_engine.step eng ~inputs:Model.no_inputs in
  Alcotest.(check (array int))
    "swap, not overwrite" [| 1; 0 |] (Swap_engine.states eng)

let test_neutralization () =
  (* process 1 is enabled iff values differ; selecting only process 0
     equalizes them, neutralizing process 1 *)
  let script ~step:_ ~enabled =
    if List.mem 0 enabled then [ 0 ] else enabled
  in
  let eng =
    Swap_engine.create ~daemon:(Daemon.of_fun ~name:"only-0" script) (pair ())
  in
  let report = Swap_engine.step eng ~inputs:Model.no_inputs in
  Alcotest.(check (list int)) "neutralized" [ 1 ] report.Model.neutralized;
  Alcotest.(check (list int)) "selected" [ 0 ] report.Model.selected

let test_round_counting () =
  (* both processes of Toy stay enabled until v=3; under the central daemon
     a round completes every 2 steps (each process executes once) *)
  let eng = Toy_engine.create ~daemon:(Daemon.central ()) (pair ()) in
  let _ = Toy_engine.run eng ~steps:6 ~inputs_at:(fun _ -> Model.no_inputs) () in
  check_int "3 rounds after 6 central steps" 3 (Toy_engine.rounds eng);
  let eng2 = Toy_engine.create ~daemon:Daemon.synchronous (pair ()) in
  let _ = Toy_engine.run eng2 ~steps:3 ~inputs_at:(fun _ -> Model.no_inputs) () in
  check_int "1 round per synchronous step" 3 (Toy_engine.rounds eng2)

let test_daemon_contract () =
  let bad ~step:_ ~enabled:_ = [] in
  let eng = Toy_engine.create ~daemon:(Daemon.of_fun ~name:"empty" bad) (pair ()) in
  Alcotest.check_raises "empty selection rejected"
    (Invalid_argument "daemon selected an empty set") (fun () ->
      ignore (Toy_engine.step eng ~inputs:Model.no_inputs));
  let disabled ~step:_ ~enabled:_ = [ 0 ] in
  let eng2 =
    Toy_engine.create ~daemon:(Daemon.of_fun ~name:"disabled" disabled) (pair ())
  in
  let _ = Toy_engine.run eng2 ~steps:3 ~inputs_at:(fun _ -> Model.no_inputs) () in
  (* process 0 saturates at 3; selecting it afterwards must be rejected *)
  Alcotest.check_raises "disabled selection rejected"
    (Invalid_argument "daemon selected disabled process 0") (fun () ->
      ignore (Toy_engine.step eng2 ~inputs:Model.no_inputs))

(* An algorithm that illegally reads a non-neighbor's state. *)
module Peeker = struct
  type state = int

  let name = "peeker"
  let pp_state = Format.pp_print_int
  let equal_state = Int.equal
  let init _ _ = 0
  let random_init _ _ _ = 0

  let actions h =
    [ { Model.label = "peek";
        guard =
          (fun ctx ->
            (* vertex 0 reads the far end of the path *)
            ctx.Model.self = 0 && ctx.Model.read (H.n h - 1) >= 0);
        apply = (fun ctx -> ctx.Model.read ctx.Model.self + 1) };
    ]

  let observe _ _ _ = Obs.make Obs.Idle
end

module Peeker_engine = Snapcc_runtime.Engine.Make (Peeker)

let test_locality_check () =
  let h = Families.path 3 in
  let eng =
    Peeker_engine.create ~check_locality:true ~daemon:Daemon.synchronous h
  in
  (match Peeker_engine.step eng ~inputs:Model.no_inputs with
   | exception Failure msg ->
     check "mentions violation" true
       (String.length msg > 0
        && String.sub msg 0 (min 8 (String.length msg)) = "locality")
   | _ -> Alcotest.fail "expected locality failure");
  (* without the check the same algorithm runs *)
  let eng2 = Peeker_engine.create ~daemon:Daemon.synchronous h in
  let r = Peeker_engine.step eng2 ~inputs:Model.no_inputs in
  check "ran" true (r.Model.executed <> [])

let test_corrupt () =
  let eng = Toy_engine.create ~seed:5 ~daemon:Daemon.synchronous (pair ()) in
  let _ = Toy_engine.run eng ~steps:100 ~inputs_at:(fun _ -> Model.no_inputs) () in
  check "terminal before fault" true
    (Toy_engine.is_terminal eng ~inputs:Model.no_inputs);
  let rng = Random.State.make [| 99 |] in
  (* redraw states until the fault actually re-enables someone *)
  let rec inject tries =
    Toy_engine.corrupt eng ~rng ~victims:[ 0; 1 ] ();
    if Toy_engine.is_terminal eng ~inputs:Model.no_inputs && tries > 0 then
      inject (tries - 1)
  in
  inject 20;
  check "fault re-enabled the system" false
    (Toy_engine.is_terminal eng ~inputs:Model.no_inputs);
  let outcome = Toy_engine.run eng ~steps:100 ~inputs_at:(fun _ -> Model.no_inputs) () in
  check "recovers to terminal" true (outcome = `Terminal)

let test_daemons_select_subset () =
  let daemons = Daemon.all_standard () in
  List.iter
    (fun d ->
      let eng = Toy_engine.create ~seed:1 ~daemon:d (pair ()) in
      let seen_ok = ref true in
      let on_step _ (r : Model.step_report) =
        if r.Model.selected = [] then seen_ok := false;
        List.iter (fun p -> if p < 0 || p > 1 then seen_ok := false) r.Model.selected
      in
      let _ = Toy_engine.run eng ~steps:50 ~inputs_at:(fun _ -> Model.no_inputs) ~on_step () in
      check (Daemon.name d ^ " selects valid subsets") true !seen_ok)
    daemons

let test_trace_convened () =
  (* hand-build a trace and check convene/terminate detection *)
  let h = pair () in
  let looking = Obs.make Obs.Looking ~pointer:(Some 0) in
  let waiting = Obs.make Obs.Waiting ~pointer:(Some 0) in
  let idle = Obs.make Obs.Idle in
  let tr = Snapcc_runtime.Trace.create h ~initial:[| looking; looking |] in
  let fake step executed obs =
    Snapcc_runtime.Trace.record tr
      { Model.step; selected = List.map fst executed; executed;
        neutralized = []; round = 0; terminal = false }
      obs
  in
  fake 0 [ (0, "Step31") ] [| waiting; looking |];
  fake 1 [ (1, "Step31") ] [| waiting; waiting |];
  fake 2 [ (0, "Step4") ] [| idle; waiting |];
  Alcotest.(check (list (pair int int)))
    "convened at step 1" [ (1, 0) ] (Snapcc_runtime.Trace.convened tr);
  Alcotest.(check (list (pair int int)))
    "terminated at step 2" [ (2, 0) ] (Snapcc_runtime.Trace.terminated tr);
  check_int "length" 3 (Snapcc_runtime.Trace.length tr)

let test_trace_fault_boundary () =
  (* a corruption that materializes (or destroys) a meeting must not be
     reported as a convene/terminate: record_fault resets the baseline *)
  let h = pair () in
  let looking = Obs.make Obs.Looking ~pointer:(Some 0) in
  let waiting = Obs.make Obs.Waiting ~pointer:(Some 0) in
  let idle = Obs.make Obs.Idle in
  let tr = Snapcc_runtime.Trace.create h ~initial:[| looking; looking |] in
  let fake step executed obs =
    Snapcc_runtime.Trace.record tr
      { Model.step; selected = List.map fst executed; executed;
        neutralized = []; round = 0; terminal = false }
      obs
  in
  (* corruption fabricates a full meeting out of thin air... *)
  Snapcc_runtime.Trace.record_fault tr ~step:0 [| waiting; waiting |];
  (* ...and the next real step only observes it persisting *)
  fake 0 [] [| waiting; waiting |];
  Alcotest.(check (list (pair int int)))
    "corruption does not fabricate a convene" []
    (Snapcc_runtime.Trace.convened tr);
  (* a second corruption wipes the meeting: not a termination either *)
  Snapcc_runtime.Trace.record_fault tr ~step:1 [| idle; idle |];
  fake 1 [] [| idle; idle |];
  Alcotest.(check (list (pair int int)))
    "corruption does not fabricate a terminate" []
    (Snapcc_runtime.Trace.terminated tr);
  (* a real convene after the fault is still detected *)
  fake 2 [ (0, "Step31"); (1, "Step31") ] [| waiting; waiting |];
  Alcotest.(check (list (pair int int)))
    "post-fault convene still detected" [ (2, 0) ]
    (Snapcc_runtime.Trace.convened tr);
  check_int "fault entries counted in length" 5
    (Snapcc_runtime.Trace.length tr)

(* ---- incremental enabled set vs the full-scan oracle ---- *)

module Workload = Snapcc_workload.Workload
module X = Snapcc_experiments.Algos

module Cursor_off = struct
  let cursor = false
end

module Sys_cc1 = Snapcc_mc.Systems.Cc1_sys (Snapcc_token.Token_tree) (X.Cc1)
module Sys_cc2 =
  Snapcc_mc.Systems.Cc23_sys (Snapcc_token.Token_tree) (X.Cc2) (Cursor_off)

(* Before every step, the set [step] selects from (the engine's cached,
   incrementally maintained set) must equal a full guard scan; after it,
   the neutralized processes must match a full scan of the post-step
   configuration.  Discussion length 2 makes the input mode change between
   steps; a corruption and a wholesale [set_states] land mid-run. *)
module Oracle (A : Model.ALGO) = struct
  module E = Snapcc_runtime.Engine.Make (A)

  let run ?packed ~name ~daemon ~seed ~steps h =
    let eng = E.create ~seed ~init:`Random ?packed ~daemon h in
    let wl = Workload.always_requesting ~disc_len:(fun _ -> 2) h in
    let scramble = Random.State.make [| seed; 7 |] in
    for i = 1 to steps do
      if i = steps / 3 then
        E.corrupt eng ~rng:scramble ~victims:[ 0; H.n h - 1 ] ();
      if i = 2 * steps / 3 then
        E.set_states eng
          (Array.init (H.n h) (A.random_init h scramble));
      let inputs = Workload.inputs wl (E.obs eng) in
      let before = E.enabled eng ~inputs in
      let r = E.step eng ~inputs in
      let mismatch what expected got =
        let show l = String.concat "," (List.map string_of_int l) in
        Alcotest.failf "%s step %d: %s [%s], full scan [%s]" name i what
          (show got) (show expected)
      in
      let sync = Daemon.name daemon = Daemon.name Daemon.synchronous in
      if (sync || r.Model.terminal) && r.Model.selected <> before then
        mismatch "selected" before r.Model.selected;
      if not (List.for_all (fun p -> List.mem p before) r.Model.selected) then
        mismatch "selected" before r.Model.selected;
      let after = E.enabled eng ~inputs in
      let executed = List.map fst r.Model.executed in
      let neutralized =
        List.filter (fun p -> not (List.mem p executed || List.mem p after)) before
      in
      if r.Model.neutralized <> neutralized then
        mismatch "neutralized" neutralized r.Model.neutralized;
      Workload.observe wl ~step:i (E.obs eng)
    done
end

module O1 = Oracle (X.Cc1)
module O2 = Oracle (X.Cc2)
module O3 = Oracle (X.Cc3)
module O1v = Oracle (X.Cc1_vring)
module O2v = Oracle (X.Cc2_vring)
module O3v = Oracle (X.Cc3_vring)

let oracle_daemons = [ Daemon.synchronous; Daemon.random_subset (); Daemon.central () ]

let test_incremental_oracle () =
  List.iter
    (fun topo ->
      let h = Families.by_name topo in
      List.iter
        (fun daemon ->
          List.iter
            (fun seed ->
              let name a =
                Printf.sprintf "%s/%s/%s/seed%d" a topo (Daemon.name daemon) seed
              in
              let steps = 240 in
              O1.run ~name:(name "cc1") ~daemon ~seed ~steps h;
              O2.run ~name:(name "cc2") ~daemon ~seed ~steps h;
              O3.run ~name:(name "cc3") ~daemon ~seed ~steps h;
              O1v.run ~name:(name "cc1-vring") ~daemon ~seed ~steps h;
              O2v.run ~name:(name "cc2-vring") ~daemon ~seed ~steps h;
              O3v.run ~name:(name "cc3-vring") ~daemon ~seed ~steps h)
            [ 1; 2; 3 ])
        oracle_daemons)
    [ "fig1"; "ring7"; "triangle3" ]

module Pk1 = Snapcc_mc.Packed.Make (Sys_cc1)
module Pk2 = Snapcc_mc.Packed.Make (Sys_cc2)

let test_incremental_oracle_packed () =
  List.iter
    (fun topo ->
      let h = Families.by_name topo in
      let hooks1 = Pk1.hooks (Pk1.build h) and hooks2 = Pk2.hooks (Pk2.build h) in
      List.iter
        (fun daemon ->
          List.iter
            (fun seed ->
              let name a =
                Printf.sprintf "%s/%s/%s/seed%d/packed" a topo (Daemon.name daemon) seed
              in
              O1.run ~packed:hooks1 ~name:(name "cc1") ~daemon ~seed ~steps:300 h;
              O2.run ~packed:hooks2 ~name:(name "cc2") ~daemon ~seed ~steps:300 h)
            [ 1; 2 ])
        oracle_daemons)
    [ "single2"; "line3" ]

(* The one startup decision of the packed path, as run/mp/smc take it:
   every outcome names the path that serves the run and why. *)
let test_pack_decision () =
  let pack ?cap ~requested topo =
    let h = Families.by_name topo in
    Model.pack ~n:(H.n h) ~requested (fun () -> Pk1.hooks (Pk1.build ?cap h))
  in
  let is ~path ~hooks (pk : _ Model.packing) =
    Alcotest.(check string) (pk.Model.reason ^ ": path") path pk.Model.path;
    check (pk.Model.reason ^ ": hooks") hooks (pk.Model.hooks <> None)
  in
  is ~path:"closure" ~hooks:false (pack ~requested:false "single2");
  is ~path:"packed" ~hooks:true (pack ~requested:true "single2");
  is ~path:"closure" ~hooks:false (pack ~cap:1 ~requested:true "line3");
  let big = pack ~requested:true "ring24" in
  is ~path:"closure" ~hooks:false big;
  check "ring24: reason names the table limit" true
    (String.length big.Model.reason > 10
     && String.sub big.Model.reason 0 10 = "no tables:")

(* The point of the cache: a synchronous CC2 run on ring24 re-evaluates
   fewer than 2n guards per step on average (a full-scan engine pays 2n
   plus one per selected process). *)
let test_guard_evals_ring24 () =
  let h = Families.by_name "ring24" in
  let n = H.n h in
  let eng = O2.E.create ~seed:1 ~daemon:Daemon.synchronous h in
  let wl = Workload.always_requesting ~disc_len:(fun _ -> 2) h in
  let outcome =
    O2.E.run eng ~steps:2_000
      ~inputs_at:(fun e -> Workload.inputs wl (O2.E.obs e))
      ~on_step:(fun e r -> Workload.observe wl ~step:r.Model.step (O2.E.obs e))
      ()
  in
  check "ran its horizon" true (outcome = `Steps_exhausted);
  let evals = List.assoc "engine_guard_evals" (O2.E.profile eng) in
  let per_step = float evals /. float (O2.E.steps_taken eng) in
  check
    (Printf.sprintf "%.1f guard evaluations per step < 2n = %d" per_step (2 * n))
    true
    (per_step < float (2 * n))

let suite =
  [ ( "runtime",
      [ Alcotest.test_case "priority: later action wins" `Quick test_priority;
        Alcotest.test_case "termination" `Quick test_termination;
        Alcotest.test_case "atomic distributed step" `Quick test_atomic_step;
        Alcotest.test_case "neutralization" `Quick test_neutralization;
        Alcotest.test_case "round counting" `Quick test_round_counting;
        Alcotest.test_case "daemon contract enforced" `Quick test_daemon_contract;
        Alcotest.test_case "locality checking" `Quick test_locality_check;
        Alcotest.test_case "fault injection and recovery" `Quick test_corrupt;
        Alcotest.test_case "standard daemons select subsets" `Quick
          test_daemons_select_subset;
        Alcotest.test_case "trace convene/terminate detection" `Quick
          test_trace_convened;
        Alcotest.test_case "trace fault boundaries" `Quick
          test_trace_fault_boundary;
        Alcotest.test_case "incremental set = full scan" `Quick
          test_incremental_oracle;
        Alcotest.test_case "incremental set = full scan, packed" `Quick
          test_incremental_oracle_packed;
        Alcotest.test_case "ring24 guard evals per step" `Quick
          test_guard_evals_ring24;
        Alcotest.test_case "packed path decision" `Quick test_pack_decision;
      ] );
  ]
