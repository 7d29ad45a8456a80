(* The smc cases that spawn OCaml 5 domains: pool merge order, pool
   exception propagation, and sequential-vs-parallel report equality.
   They run in their own executable because on OCaml 5.1 a process that
   has spawned a domain can no longer [Unix.fork], and test_main's net,
   packed and causal suites fork.  Every other smc case runs sequentially
   and stays in test_main. *)

module Smc = Snapcc_smc
open Smc_fixture

let check = Alcotest.(check bool)

(* ---- sequential == parallel ---- *)

let test_pool_merge_order () =
  (* synthetic records: the pool must return f applied to exactly
     [offset, offset+count) in index order, for any worker count, on no
     more domains than workers and cores *)
  let domains = Hashtbl.create 8 and lock = Mutex.create () in
  let f i =
    Mutex.protect lock (fun () -> Hashtbl.replace domains (Domain.self ()) ());
    { Smc.Trial.trial = i;
      seed = Smc.Trial.derive ~seed:9 i;
      stabilized = (if i mod 3 = 0 then Some i else None);
      convenes = i mod 5;
      violations = 0;
      deadlocked = i mod 7 = 0;
      steps = i;
      waits = [ i; i + 1 ] }
  in
  List.iter
    (fun (w, count) ->
      let seq = Smc.Pool.run ~workers:1 ~offset:3 ~count f in
      Hashtbl.reset domains;
      let par = Smc.Pool.run ~workers:w ~offset:3 ~count f in
      check
        (Printf.sprintf "workers=%d count=%d merge equals sequential" w count)
        true (par = seq);
      check
        (Printf.sprintf "workers=%d: at most min(workers, cores) domains" w)
        true
        (Hashtbl.length domains <= min w (Domain.recommended_domain_count ())))
    (* 200 workers: more than the 127 domains OCaml 5.1 can keep alive *)
    [ (2, 41); (3, 41); (5, 41); (8, 41); (200, 300) ]

let test_pool_exceptions () =
  let count = 40 in
  let seq = List.init count Fun.id in
  (* indices 0 and count-1 lie in the first and the last slice for every
     worker count; the second raiser leaves the first slice clean, so the
     exception has to cross a [Domain.join] *)
  let raising_at bad i = if List.mem i bad then raise Exit else i in
  List.iter
    (fun w ->
      List.iter
        (fun bad ->
          Alcotest.check_raises
            (Printf.sprintf "workers=%d: Exit propagates as itself" w)
            Exit
            (fun () ->
              ignore (Smc.Pool.run ~workers:w ~offset:0 ~count (raising_at bad))))
        [ [ 0; count - 1 ]; [ count - 1 ] ];
      check
        (Printf.sprintf "workers=%d: the next run is sequential again" w)
        true
        (Smc.Pool.run ~workers:w ~offset:0 ~count Fun.id = seq))
    [ 1; 2; 3; 8 ]

let test_sequential_vs_parallel_report () =
  (* cc1 on single2, and cc2 on line3, where packed tables serve two of
     the three processes: each domain interns into its own encoder copy *)
  List.iter
    (fun (algo, topo, workers) ->
      let c = cfg ~algo ~topo () in
      let r1 = report c in
      let rw = report { c with Smc.Runner.workers } in
      Alcotest.(check string)
        (Printf.sprintf "%s on %s: workers 1 and %d merge to identical reports"
           algo topo workers)
        (report_string r1) (report_string rw))
    [ ("cc1", "single2", 3); ("cc2", "line3", 2); ("cc2", "line3", 3) ]

let () =
  Alcotest.run "snapcc-smc-domains"
    [ ( "smc",
        [ Alcotest.test_case "pool merge order (synthetic)" `Quick
            test_pool_merge_order;
          Alcotest.test_case "pool exceptions propagate" `Quick
            test_pool_exceptions;
          Alcotest.test_case "sequential == parallel report" `Quick
            test_sequential_vs_parallel_report ] ) ]
