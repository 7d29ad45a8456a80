(* Orchestration: resolve the algorithm to a typed trial function (with
   optional packed-table hooks), run the trials — in one shot, or in
   fixed-size batches under SPRT — through the worker pool, emit the
   telemetry stream, build the report.

   Worker-count independence is arranged here once and relied on
   everywhere: the packed tables are built once, in the calling domain,
   and shared read-only by the pool's domains (each interns escapees into
   its own copy of the state encoder), trial records come back in index
   order from the pool, the SPRT consumes them in index order in batches
   whose size never depends on the worker count, and telemetry is emitted
   only by the calling domain after the records are merged. *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Tele = Snapcc_telemetry
module X = Snapcc_experiments.Algos

type cfg = {
  algo : string;
  topo_name : string;
  topo : H.t;
  daemon : string;
  workload : string;
  disc : int;
  budget : int;
  trials : int;
  workers : int;
  seed : int;
  confidence : float;
  engine : [ `Packed | `Closure ];
  sprt : float option;
  sprt_delta : float;
  sprt_within : int option;
}

let algo_names =
  [ "cc1"; "cc2"; "cc3"; "cc1-vring"; "cc2-vring"; "cc3-vring" ]

module Cursor_off = struct
  let cursor = false
end

module Cursor_on = struct
  let cursor = true
end

module Sys_cc1 = Snapcc_mc.Systems.Cc1_sys (Snapcc_token.Token_tree) (X.Cc1)
module Sys_cc2 =
  Snapcc_mc.Systems.Cc23_sys (Snapcc_token.Token_tree) (X.Cc2) (Cursor_off)
module Sys_cc3 =
  Snapcc_mc.Systems.Cc23_sys (Snapcc_token.Token_tree) (X.Cc3) (Cursor_on)
module Sys_cc1v =
  Snapcc_mc.Systems.Cc1_sys (Snapcc_token.Token_vring) (X.Cc1_vring)
module Sys_cc2v =
  Snapcc_mc.Systems.Cc23_sys (Snapcc_token.Token_vring) (X.Cc2_vring)
    (Cursor_off)
module Sys_cc3v =
  Snapcc_mc.Systems.Cc23_sys (Snapcc_token.Token_vring) (X.Cc3_vring)
    (Cursor_on)

(* Same startup budget as the interactive commands: a process whose
   footprint-cell count exceeds this is served by the guard closures
   (trace-identical either way). *)
let pack_cap = 1 lsl 20

(* Tables are built here, once, in the calling domain; the pool's other
   domains share them through [Pk.domain_hooks] instead of re-enumerating.
   [Model.pack] keeps the guard closures (trace-identical) where no table
   can serve.  The chosen path travels with the trial function, for the
   telemetry stream. *)
module Mk (A : Model.ALGO) (Sys : Snapcc_mc.System.S with type state = A.state) =
struct
  module T = Trial.Of (A)
  module Pk = Snapcc_mc.Packed.Make (Sys)

  let trial_fn cfg =
    let pk =
      Model.pack ~n:(H.n cfg.topo) ~requested:(cfg.engine = `Packed) (fun () ->
          Pk.domain_hooks (Pk.build ~cap:pack_cap cfg.topo))
    in
    ( (pk.Model.path, pk.Model.reason),
      fun i ->
        T.run ?packed:pk.Model.hooks ~seed:cfg.seed ~budget:cfg.budget
          ~daemon:cfg.daemon ~workload:cfg.workload ~disc:cfg.disc cfg.topo
          ~trial:i )
end

module F_cc1 = Mk (X.Cc1) (Sys_cc1)
module F_cc2 = Mk (X.Cc2) (Sys_cc2)
module F_cc3 = Mk (X.Cc3) (Sys_cc3)
module F_cc1v = Mk (X.Cc1_vring) (Sys_cc1v)
module F_cc2v = Mk (X.Cc2_vring) (Sys_cc2v)
module F_cc3v = Mk (X.Cc3_vring) (Sys_cc3v)

let trial_fn cfg =
  match cfg.algo with
  | "cc1" -> Ok (F_cc1.trial_fn cfg)
  | "cc2" -> Ok (F_cc2.trial_fn cfg)
  | "cc3" -> Ok (F_cc3.trial_fn cfg)
  | "cc1-vring" -> Ok (F_cc1v.trial_fn cfg)
  | "cc2-vring" -> Ok (F_cc2v.trial_fn cfg)
  | "cc3-vring" -> Ok (F_cc3v.trial_fn cfg)
  | a ->
    Error
      (Printf.sprintf "smc supports %s, not %S"
         (String.concat "|" algo_names) a)

let validate cfg =
  if not (List.mem cfg.daemon ("sync" :: Trial.daemon_names)) then
    Error (Printf.sprintf "unknown daemon %S" cfg.daemon)
  else if not (List.mem cfg.workload Trial.workload_names) then
    Error (Printf.sprintf "unknown workload %S" cfg.workload)
  else Ok ()

(* Batch size for SPRT mode: the pool is invoked on fixed-size blocks of
   the trial index space, so the set of executed trials — and therefore
   the number the test consumed — is independent of the worker count. *)
let sprt_batch = 128

let collect cfg f =
  match cfg.sprt with
  | None ->
    (Pool.run ~workers:cfg.workers ~offset:0 ~count:cfg.trials f, None)
  | Some theta ->
    let spec =
      { Sprt.theta;
        delta = cfg.sprt_delta;
        alpha = 1. -. cfg.confidence;
        beta = 1. -. cfg.confidence }
    in
    let t = Sprt.create spec in
    let within = Option.value cfg.sprt_within ~default:cfg.budget in
    let success r =
      match r.Trial.stabilized with Some s -> s <= within | None -> false
    in
    let acc = ref [] in
    let off = ref 0 in
    while Sprt.verdict t = Sprt.Undecided && !off < cfg.trials do
      let n = min sprt_batch (cfg.trials - !off) in
      let rs = Pool.run ~workers:cfg.workers ~offset:!off ~count:n f in
      List.iter (fun r -> Sprt.feed t (success r)) rs;
      acc := rs :: !acc;
      off := !off + n
    done;
    (List.concat (List.rev !acc), Some (Sprt.outcome t))

let emit_telemetry hub cfg (path, reason) records =
  Tele.Hub.emit hub (Tele.Event.Engine { path; reason });
  Tele.Hub.emit hub
    (Tele.Event.Run_start
       { algo = cfg.algo;
         daemon = cfg.daemon;
         workload = cfg.workload;
         seed = cfg.seed;
         n = H.n cfg.topo;
         m = H.m cfg.topo;
         topo = Snapcc_hypergraph.Hypergraph_io.to_string cfg.topo });
  List.iter
    (fun r ->
      Tele.Hub.emit hub
        (Tele.Event.Smc_trial
           { trial = r.Trial.trial;
             seed = r.Trial.seed;
             stabilized = r.Trial.stabilized;
             convenes = r.Trial.convenes;
             violations = r.Trial.violations;
             deadlocked = r.Trial.deadlocked;
             steps = r.Trial.steps }))
    records;
  Tele.Hub.emit hub
    (Tele.Event.Run_end
       { outcome = "smc"; steps = List.length records; rounds = 0 })

let run ?telemetry cfg =
  match validate cfg with
  | Error _ as e -> e
  | Ok () -> (
    match trial_fn cfg with
    | Error _ as e -> e
    | Ok (engine, f) ->
      let records, sprt = collect cfg f in
      Option.iter (fun hub -> emit_telemetry hub cfg engine records) telemetry;
      Ok
        (Report.build ~algo:cfg.algo ~topo:cfg.topo_name ~daemon:cfg.daemon
           ~workload:cfg.workload ~disc:cfg.disc ~budget:cfg.budget
           ~seed:cfg.seed ~confidence:cfg.confidence ?sprt records))
