(* The statistical tier, sequential cases: seed determinism, estimator
   coverage on known-probability fixtures, SPRT accept/reject with early
   stopping, agreement with the exhaustive checker on single2, and the
   cmdliner-level --burst-at/--soak precedence contract of lib/cli.  The
   cases that spawn domains are in test_smc_domains.ml. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Tele = Snapcc_telemetry
module Smc = Snapcc_smc
module Cli = Snapcc_cli.Cli

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

open Smc_fixture

(* ---- per-trial seed derivation ---- *)

let test_derive_disjoint () =
  let seen = Hashtbl.create 64 in
  for trial = 0 to 999 do
    let s = Smc.Trial.derive ~seed:42 trial in
    check "derived seed non-negative" true (s >= 0);
    check "derived seeds distinct" false (Hashtbl.mem seen s);
    Hashtbl.replace seen s ()
  done;
  (* different base seeds decorrelate the same trial index *)
  check "base seed matters" false
    (Smc.Trial.derive ~seed:1 0 = Smc.Trial.derive ~seed:2 0)

(* ---- seed determinism: same seed => byte-identical report ---- *)

let test_seed_determinism () =
  let r1 = report (cfg ()) in
  let r2 = report (cfg ()) in
  Alcotest.(check string) "same seed, same report" (report_string r1)
    (report_string r2);
  let r3 = report (cfg ~seed:43 ()) in
  check "different seed, different report" false
    (report_string r1 = report_string r3)

(* ---- estimator quantiles against table values ---- *)

let close ?(tol = 5e-3) a b = Float.abs (a -. b) <= tol

let test_quantiles () =
  check "z(0.975)" true (close (Smc.Estimator.z_quantile 0.975) 1.959964);
  check "z(0.995)" true (close (Smc.Estimator.z_quantile 0.995) 2.575829);
  check "z symmetric" true
    (close
       (Smc.Estimator.z_quantile 0.975 +. Smc.Estimator.z_quantile 0.025)
       0.);
  check "t(df=1, 0.975)" true
    (close ~tol:5e-2 (Smc.Estimator.t_quantile ~df:1 0.975) 12.7062);
  check "t(df=2, 0.975)" true
    (close (Smc.Estimator.t_quantile ~df:2 0.975) 4.302653);
  check "t(df=10, 0.975)" true
    (close (Smc.Estimator.t_quantile ~df:10 0.975) 2.228139);
  check "t(df=100, 0.975)" true
    (close (Smc.Estimator.t_quantile ~df:100 0.975) 1.983972)

(* ---- CI coverage on a known-probability Bernoulli fixture ----

   Deterministic rng, 40 replications of n=150 Bernoulli(0.3) samples:
   the 95% Wilson interval must contain the true p in (nearly) 95% of
   replications.  The count is a fixed function of the seed; we assert
   the generic >= 90% so the test documents coverage, not one rng. *)

let test_wilson_coverage () =
  let rng = Random.State.make [| 20260808 |] in
  let p_true = 0.3 in
  let reps = 40 and n = 150 in
  let covered = ref 0 in
  for _ = 1 to reps do
    let successes = ref 0 in
    for _ = 1 to n do
      if Random.State.float rng 1.0 < p_true then incr successes
    done;
    let _, ci =
      Smc.Estimator.wilson ~confidence:0.95 ~successes:!successes ~trials:n
    in
    if ci.Smc.Estimator.lo <= p_true && p_true <= ci.Smc.Estimator.hi then
      incr covered
  done;
  check
    (Printf.sprintf "wilson 95%% CI covered %d/%d" !covered reps)
    true
    (!covered >= (reps * 90 / 100))

let test_student_t_coverage () =
  let rng = Random.State.make [| 81808 |] in
  let mu = 4.5 in
  let reps = 40 and n = 100 in
  let covered = ref 0 in
  for _ = 1 to reps do
    let xs = List.init n (fun _ -> float_of_int (Random.State.int rng 10)) in
    let _, ci = Smc.Estimator.student_t_ci ~confidence:0.95 xs in
    if ci.Smc.Estimator.lo <= mu && mu <= ci.Smc.Estimator.hi then
      incr covered
  done;
  check
    (Printf.sprintf "student-t 95%% CI covered %d/%d" !covered reps)
    true
    (!covered >= (reps * 90 / 100));
  (* degenerate inputs collapse to the mean instead of going NaN (the
     JSON printer renders non-finite floats as null) *)
  let m, ci = Smc.Estimator.student_t_ci ~confidence:0.95 [ 3. ] in
  check "single sample collapses" true
    (m = 3. && ci.Smc.Estimator.lo = 3. && ci.Smc.Estimator.hi = 3.);
  let m, ci = Smc.Estimator.student_t_ci ~confidence:0.95 [ 2.; 2.; 2. ] in
  check "zero variance collapses" true
    (m = 2. && ci.Smc.Estimator.lo = 2. && ci.Smc.Estimator.hi = 2.)

(* ---- SPRT on rigged fixtures ---- *)

let sprt_spec theta =
  { Smc.Sprt.theta; delta = 0.05; alpha = 0.05; beta = 0.05 }

let test_sprt_accept () =
  (* true p ~ 0.98 against theta = 0.7: must accept, early *)
  let t = Smc.Sprt.create (sprt_spec 0.7) in
  let fed = ref 0 in
  (try
     for i = 0 to 499 do
       if Smc.Sprt.verdict t <> Smc.Sprt.Undecided then raise Exit;
       incr fed;
       Smc.Sprt.feed t (i mod 50 <> 49)
     done
   with Exit -> ());
  let o = Smc.Sprt.outcome t in
  check "accepts a clearly-true claim" true
    (o.Smc.Sprt.verdict = Smc.Sprt.Accepted);
  check "stops well before the truncation bound" true
    (o.Smc.Sprt.consumed < 100);
  check_int "consumed counts fed observations" o.Smc.Sprt.consumed !fed

let test_sprt_reject () =
  (* true p ~ 0.1 against theta = 0.9: must reject, early *)
  let t = Smc.Sprt.create (sprt_spec 0.9) in
  (try
     for i = 0 to 499 do
       if Smc.Sprt.verdict t <> Smc.Sprt.Undecided then raise Exit;
       Smc.Sprt.feed t (i mod 10 = 0)
     done
   with Exit -> ());
  let o = Smc.Sprt.outcome t in
  check "rejects a clearly-false claim" true
    (o.Smc.Sprt.verdict = Smc.Sprt.Rejected);
  check "stops well before the truncation bound" true
    (o.Smc.Sprt.consumed < 100)

let test_sprt_decided_is_frozen () =
  let t = Smc.Sprt.create (sprt_spec 0.7) in
  while Smc.Sprt.verdict t = Smc.Sprt.Undecided do
    Smc.Sprt.feed t true
  done;
  let o = Smc.Sprt.outcome t in
  (* feeding a full batch past the decision must not move anything —
     the parallel runner's worker-count independence rests on this *)
  for _ = 1 to 128 do
    Smc.Sprt.feed t false
  done;
  let o' = Smc.Sprt.outcome t in
  check "outcome frozen after decision" true (o = o')

let test_sprt_runner_early_stop () =
  (* cc1 on single2 stabilizes essentially always within 200 steps: the
     SPRT run must accept and consume fewer trials than the fixed run *)
  let r = report (cfg ~trials:400 ~sprt:0.6 ()) in
  match r.Smc.Report.sprt with
  | None -> Alcotest.fail "expected an sprt outcome"
  | Some o ->
    check "runner sprt accepted" true (o.Smc.Sprt.verdict = Smc.Sprt.Accepted);
    check "runner sprt stopped early" true (o.Smc.Sprt.consumed < 400);
    check "report aggregates only executed trials" true
      (r.Smc.Report.trials < 400)

(* ---- agreement with the exhaustive checker on single2 ----

   `ccsim check --algo cc1,cc2,cc3 --token vring --family single -n 2'
   (the tier-1 @check gate) verifies: no deadlock, no safety violation,
   from every initial configuration.  The sampler on the same system
   must agree: every trial stabilizes within a generous budget, zero
   deadlocks, zero monitor verdicts. *)

let test_agreement_with_check_single2 () =
  let r = report (cfg ~algo:"cc1-vring" ~trials:150 ~budget:400 ()) in
  check_int "every trial stabilized" 150 r.Smc.Report.stabilized.Smc.Report.count;
  check_int "no deadlock (check proves none exists)" 0
    r.Smc.Report.deadlock.Smc.Report.count;
  check_int "no monitor violation" 0 r.Smc.Report.violations;
  match r.Smc.Report.stabilization with
  | None -> Alcotest.fail "expected a stabilization distribution"
  | Some d ->
    check "mean stabilization within the exact diameter bound" true
      (d.Smc.Report.mean >= 1. && d.Smc.Report.mean <= 400.)

(* ---- smc_trial event JSON round-trip ---- *)

let test_event_roundtrip () =
  let evs =
    [ Tele.Event.Smc_trial
        { trial = 7; seed = 123456789; stabilized = Some 31; convenes = 4;
          violations = 0; deadlocked = false; steps = 200 };
      Tele.Event.Smc_trial
        { trial = 8; seed = 987654321; stabilized = None; convenes = 0;
          violations = 1; deadlocked = true; steps = 64 } ]
  in
  List.iter
    (fun ev ->
      match Tele.Event.of_json (Tele.Event.to_json ev) with
      | Ok ev' -> check "smc_trial round-trips" true (ev = ev')
      | Error msg -> Alcotest.fail ("smc_trial round-trip: " ^ msg))
    evs

(* ---- cmdliner-level --burst-at/--soak precedence (lib/cli) ---- *)

let eval_burst argv =
  let open Cmdliner in
  let steps_arg =
    Arg.(value & opt Cli.pos_int_conv 100 & info [ "steps" ])
  in
  let term =
    Term.(
      const (fun burst soak steps -> Cli.resolve_burst ~steps ~soak burst)
      $ Cli.burst_arg $ Cli.soak_arg $ steps_arg)
  in
  let cmd = Cmd.v (Cmd.info "test-burst") term in
  match Cmd.eval_value ~argv cmd with
  | Ok (`Ok v) -> v
  | _ -> Alcotest.fail "cmdliner rejected the test argv"

let test_burst_soak_precedence () =
  (* --soak alone derives steps/2 *)
  (match eval_burst [| "test-burst"; "--soak"; "--steps"; "100" |] with
   | Some 50 -> ()
   | b ->
     Alcotest.failf "--soak alone: expected Some 50, got %s"
       (match b with Some v -> string_of_int v | None -> "None"));
  (* explicit --burst-at wins over --soak, in either flag order *)
  check_int "--burst-at 7 --soak keeps 7" 7
    (Option.get
       (eval_burst [| "test-burst"; "--burst-at"; "7"; "--soak" |]));
  check_int "--soak --burst-at 7 keeps 7" 7
    (Option.get
       (eval_burst
          [| "test-burst"; "--soak"; "--burst-at"; "7"; "--steps"; "100" |]));
  (* neither flag: no burst *)
  check "no flags, no burst" true
    (eval_burst [| "test-burst" |] = None)

let suite =
  [ ( "smc",
      [ Alcotest.test_case "derived seeds distinct" `Quick
          test_derive_disjoint;
        Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
        Alcotest.test_case "normal/t quantiles" `Quick test_quantiles;
        Alcotest.test_case "wilson coverage (Bernoulli fixture)" `Quick
          test_wilson_coverage;
        Alcotest.test_case "student-t coverage + degenerate inputs" `Quick
          test_student_t_coverage;
        Alcotest.test_case "sprt accepts true claim early" `Quick
          test_sprt_accept;
        Alcotest.test_case "sprt rejects false claim early" `Quick
          test_sprt_reject;
        Alcotest.test_case "sprt frozen after decision" `Quick
          test_sprt_decided_is_frozen;
        Alcotest.test_case "sprt early stop through the runner" `Quick
          test_sprt_runner_early_stop;
        Alcotest.test_case "agreement with ccsim check on single2" `Quick
          test_agreement_with_check_single2;
        Alcotest.test_case "smc_trial event round-trip" `Quick
          test_event_roundtrip;
        Alcotest.test_case "--burst-at/--soak precedence (cmdliner)" `Quick
          test_burst_soak_precedence ] ) ]
