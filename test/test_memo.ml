(* The per-context macro memo: a priority scan on one shared context
   ([Model.first_enabled]) against the unmemoized readings, where every
   guard gets a fresh context, or the context has no memo.  All must pick
   the same action and read the same set of processes, and the statement run on the scan's (filled) context
   must return the state a fresh context gives, for every algorithm, its
   ablations and both token layers, on random, reached and corrupted
   configurations under the four uniform input modes. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Model = Snapcc_runtime.Model
module Daemon = Snapcc_runtime.Daemon
module Workload = Snapcc_workload.Workload
module Tree = Snapcc_token.Token_tree
module Vring = Snapcc_token.Token_vring
module Null = Snapcc_token.Token_null
module Cc1 = Snapcc_core.Cc1
module Cc23 = Snapcc_core.Cc23

module Parity (A : Model.ALGO) = struct
  module E = Snapcc_runtime.Engine.Make (A)

  (* the processes [f read] reads, in a fresh mask *)
  let recording states f =
    let mask = Array.make (Array.length states) false in
    let read q = mask.(q) <- true; states.(q) in
    let r = f read in
    (r, mask)

  let shared h acts inputs states p =
    recording states (fun read -> Model.first_enabled acts (Model.make_ctx h ~inputs ~read p))

  let fresh_per_guard h acts inputs states p =
    recording states (fun read ->
        let i = ref (Array.length acts - 1) in
        while !i >= 0 && not (acts.(!i).Model.guard (Model.make_ctx h ~inputs ~read p)) do
          decr i
        done;
        !i)

  (* the contexts the per-guard analyzers use *)
  let no_memo h acts inputs states p =
    recording states (fun read ->
        Model.first_enabled acts (Model.make_ctx ~memo:false h ~inputs ~read p))

  let check_config ~where h acts states =
    Array.iter
      (fun (mode, inputs) ->
        for p = 0 to H.n h - 1 do
          let i1, m1 = shared h acts inputs states p in
          List.iter
            (fun (what, scan) ->
              let i2, m2 = scan h acts inputs states p in
              if i1 <> i2 || m1 <> m2 then
                Alcotest.failf "%s %s mode %s process %d: shared scan picks %d, %s %d%s"
                  A.name where mode p i1 what i2
                  (if m1 <> m2 then " (read sets differ)" else ""))
            [ ("fresh contexts", fresh_per_guard); ("no memo", no_memo) ];
          if i1 >= 0 then begin
            let ctx = Model.make_ctx h ~inputs ~read:(Array.get states) p in
            ignore (Model.first_enabled acts ctx);
            let fresh = Model.make_ctx h ~inputs ~read:(Array.get states) p in
            if not (A.equal_state (acts.(i1).Model.apply ctx) (acts.(i1).Model.apply fresh))
            then
              Alcotest.failf "%s %s mode %s process %d: %s differs after the scan" A.name
                where mode p acts.(i1).Model.label
          end
        done)
      Model.input_modes

  (* [k] configurations of each kind: drawn from the whole state domain,
     reached by the engine from a random start, and reached then partly
     corrupted *)
  let run ~k h =
    let acts = Array.of_list (A.actions h) in
    let n = H.n h in
    let rng = Random.State.make [| 17; n |] in
    for _ = 1 to k do
      check_config ~where:"random" h acts (Array.init n (A.random_init h rng))
    done;
    let eng = E.create ~seed:5 ~init:`Random ~daemon:(Daemon.random_subset ()) h in
    let wl = Workload.always_requesting h in
    for s = 1 to 8 * k do
      let inputs = Workload.inputs wl (E.obs eng) in
      let r = E.step eng ~inputs in
      if not r.Model.terminal then Workload.observe wl ~step:r.Model.step (E.obs eng);
      if s mod 8 = 0 then begin
        let states = Array.copy (E.states eng) in
        check_config ~where:"reached" h acts states;
        Array.iteri
          (fun p _ -> if Random.State.int rng 4 = 0 then states.(p) <- A.random_init h rng p)
          states;
        check_config ~where:"corrupted" h acts states
      end
    done
end

let algorithms : (string * (module Model.ALGO)) list =
  [ ("cc1-tree", (module Cc1.Std (Tree)));
    ("cc1-vring", (module Cc1.Std (Vring)));
    ("cc1-null", (module Cc1.Std (Null)));
    ("cc1-inverted", (module Cc1.Inverted_std (Tree)));
    ("cc1-unchecked-ready", (module Cc1.Unchecked_ready_std (Vring)));
    ("cc1-widest", (module Cc1.Make (Tree) (Snapcc_core.Cc_common.Widest_params)));
    ("cc2-tree", (module Cc23.Cc2_std (Tree)));
    ("cc2-vring", (module Cc23.Cc2_std (Vring)));
    ("cc3-tree", (module Cc23.Cc3_std (Tree)));
    ("cc3-vring", (module Cc23.Cc3_std (Vring)));
    ("token-only-tree", (module Cc23.Token_only_std (Tree)));
    ("token-only-vring", (module Cc23.Token_only_std (Vring)));
    ("cc2-eager-tree", (module Cc23.Eager_release_std (Tree)));
    ("cc2-eager-vring", (module Cc23.Eager_release_std (Vring)));
    ("tree-standalone", (module Snapcc_token.Layer.As_algo (Tree)));
  ]

let topologies = [ "single2"; "line3"; "triangle3"; "ring5"; "fig1"; "ring24" ]

let test_parity () =
  List.iter
    (fun (_, (module A : Model.ALGO)) ->
      let module P = Parity (A) in
      List.iter
        (fun topo ->
          let h = Families.by_name topo in
          P.run ~k:(if H.n h > 8 then 8 else 30) h)
        topologies)
    algorithms

let suite =
  [ ("memo",
     [ Alcotest.test_case "shared-context scan = per-guard fresh contexts" `Quick
         test_parity ]) ]
