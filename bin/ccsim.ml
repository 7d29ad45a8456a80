(* ccsim — command-line driver for the snap-stabilizing committee
   coordination library.

   ccsim run        simulate an algorithm on a topology, with monitors
   ccsim bounds     print the matching-theory bounds of a topology
   ccsim experiment run one of the paper's experiments by id
   ccsim lint       static footprint/race/priority analysis of the algorithms
   ccsim list       available topologies, algorithms and experiments *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Matching = Snapcc_hypergraph.Matching
module Model = Snapcc_runtime.Model
module Daemon = Snapcc_runtime.Daemon
module Obs = Snapcc_runtime.Obs
module Trace = Snapcc_runtime.Trace
module Workload = Snapcc_workload.Workload
module Spec = Snapcc_analysis.Spec
module X = Snapcc_experiments.Algos
module Driver = Snapcc_experiments.Driver
module Registry = Snapcc_experiments.Registry
module Table = Snapcc_experiments.Table

open Cmdliner

(* ---- shared arguments ---- *)

(* [topology_arg] is defined below [resolve_topo] — every command's
   topology option goes through the one shared converter. *)

(* Shared validating converters (lib/cli — tested at the cmdliner level):
   every numeric option goes through one of these so `ccsim sim --steps
   -3' and friends fail at parse time with a uniform message instead of
   misbehaving downstream. *)

module Cli = Snapcc_cli.Cli

let pos_int_conv = Cli.pos_int_conv
let nonneg_int_conv = Cli.nonneg_int_conv
let probability_conv = Cli.probability_conv

let seed_arg =
  Arg.(value & opt nonneg_int_conv 1
       & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed (non-negative).")

let steps_arg =
  Arg.(value & opt pos_int_conv 10_000
       & info [ "steps" ] ~docv:"N" ~doc:"Step horizon (positive).")

let algo_arg =
  let doc = "Algorithm: cc1|cc2|cc3|token-only|dining|central|cc1-no-token." in
  Arg.(value & opt string "cc1" & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)

let daemon_arg =
  let doc = "Daemon: synchronous|central|random|sparse." in
  Arg.(value & opt string "random" & info [ "d"; "daemon" ] ~docv:"DAEMON" ~doc)

let workload_arg =
  let doc = "Workload: always|bursty|infinite." in
  Arg.(value & opt string "always" & info [ "w"; "workload" ] ~docv:"WL" ~doc)

let disc_arg =
  Arg.(value & opt int 2 & info [ "disc" ] ~docv:"D"
         ~doc:"Voluntary-discussion length in steps (maxDisc).")

let random_init_arg =
  Arg.(value & flag & info [ "random-init" ]
         ~doc:"Start from an arbitrary configuration (post-fault state).")

let fault_arg =
  Arg.(value & opt (some int) None & info [ "fault-at" ] ~docv:"STEP"
         ~doc:"Inject a transient fault (corrupt half the processes) at STEP.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the full execution trace.")

let timeline_arg =
  Arg.(value & flag & info [ "timeline" ]
         ~doc:"Print the ASCII meeting timeline (committees x time).")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweeps (what the tests run).")

(* Shared by `run', `mp', `net' and `check': which stepping machinery to
   use.  `packed' routes guard evaluation through the exact
   guard/footprint tables of lib/mc (and, for `net', switches the wire to
   packed-id/XOR-delta snapshot frames); processes whose tables exceed the
   startup budget fall back to the guard closures automatically, so
   `packed' is always safe to default to — behavior is identical either
   way, only speed and wire bytes differ. *)
let engine_conv : [ `Packed | `Closure ] Arg.conv =
  Arg.enum [ ("packed", `Packed); ("closure", `Closure) ]

let engine_arg =
  Arg.(value & opt engine_conv `Packed
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Stepping engine: packed|closure.  `packed' (default) \
                 drives guards through pre-enumerated configuration \
                 tables where they fit the startup budget and falls back \
                 to the guard closures elsewhere; runs are \
                 trace-identical across engines.")

(* Startup budget for table enumeration on the interactive paths: a
   process whose footprint-cell count exceeds this is skipped in O(1) and
   served by the guard closures instead (the bench passes bigger caps
   explicitly). *)
let cli_pack_cap = 1 lsl 20

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
module Pk_cc1 = Snapcc_mc.Packed.Make (Sys_cc1)
module Pk_cc2 = Snapcc_mc.Packed.Make (Sys_cc2)
module Pk_cc3 = Snapcc_mc.Packed.Make (Sys_cc3)

let daemon = function
  | "synchronous" | "sync" -> Ok Daemon.synchronous
  | "central" -> Ok (Daemon.central ())
  | "random" -> Ok (Daemon.random_subset ())
  | "sparse" -> Ok (Daemon.random_subset ~p:0.15 ())
  | d -> Error (Printf.sprintf "unknown daemon %S" d)

let workload name ~disc h =
  match name with
  | "always" -> Ok (Workload.always_requesting ~disc_len:(fun _ -> disc) h)
  | "bursty" -> Ok (Workload.bursty ~disc_len:(fun _ -> disc) ~seed:7 h)
  | "infinite" -> Ok (Workload.infinite_meetings h)
  | w -> Error (Printf.sprintf "unknown workload %S" w)

let runner = function
  | "cc1" -> Ok (List.nth (X.paper_algorithms ()) 0)
  | "cc2" -> Ok (List.nth (X.paper_algorithms ()) 1)
  | "cc3" -> Ok (List.nth (X.paper_algorithms ()) 2)
  | "cc1-no-token" ->
    Ok
      { X.label = "CC1/no-token";
        run =
          (fun ?seed ?init ?faults ?stop_when ?record_trace ?telemetry ~daemon
               ~workload ~steps h ->
            X.Run_cc1_no_token.run ?seed ?init ?faults ?stop_when ?record_trace
              ?telemetry ~daemon ~workload ~steps h) }
  | name ->
    (match List.find_opt (fun r -> r.X.label = name) (X.baseline_algorithms ()) with
     | Some r -> Ok r
     | None -> Error (Printf.sprintf "unknown algorithm %S" name))

let or_die = function
  | Ok v -> v
  | Error msg ->
    Format.eprintf "ccsim: %s@." msg;
    exit 2

(* ---- shared topology resolution ----

   Every command resolves topologies through the one grammar in lib/cli
   ([Cli.resolve_topo]): run/mp/net/bounds take the parse-time
   [topo_conv]; lint's comma list and check/smc's --family/-n call
   [resolve_topo] directly — so the commands cannot drift. *)
let topology = Cli.topology
let resolve_topo = Cli.resolve_topo
let topo_conv = Cli.topo_conv

let topology_arg =
  let doc =
    "Topology: fig1|fig2|fig3|fig4, ring<n>, path<n>, star<n>, clique<n>, \
     single<k>, one of the named families (see `ccsim list'), or a path to \
     a committee file (see lib/hypergraph/hypergraph_io.mli for the format)."
  in
  Arg.(value & opt topo_conv (or_die (resolve_topo "fig1"))
       & info [ "t"; "topology" ] ~docv:"TOPO" ~doc)

(* ---- telemetry plumbing ---- *)

module Tele = Snapcc_telemetry

let write_json file json =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Tele.Json.to_string json);
      output_char oc '\n')

(* [read_lines "-"] reads standard input, so artifacts pipe straight into
   `ccsim stats -' and `ccsim trace -'. *)
let read_lines file =
  let drain ic =
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  if file = "-" then drain stdin
  else begin
    let ic = open_in file in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> drain ic)
  end

(* A hub fanning out to the requested file sinks.  Returns the hub (None
   when nothing was requested), the ring sink backing [--emit-json] (the
   summary is aggregated from it post-run), and a finalizer that closes
   the sinks (writing the catapult trailer) and the files. *)
let make_hub ?(ring_capacity = 0) ?(force = false) ~emit_trace ~emit_catapult () =
  if emit_trace = None && emit_catapult = None && ring_capacity = 0
     && not force
  then (None, None, fun () -> ())
  else begin
    (* catapult is the one artifact that renders timestamps; give the hub
       a real clock only when it is requested, so every other artifact
       stays a pure function of the seed *)
    let clock = if emit_catapult = None then None else Some Sys.time in
    let hub = Tele.Hub.create ?clock () in
    let closers = ref [] in
    let add_file mk file =
      let oc = open_out file in
      Tele.Hub.add_sink hub (mk (output_string oc));
      closers := (fun () -> close_out oc) :: !closers
    in
    Option.iter (add_file Tele.Sink.jsonl) emit_trace;
    Option.iter (add_file Tele.Sink.catapult) emit_catapult;
    let ring =
      if ring_capacity = 0 then None
      else begin
        let r = Tele.Sink.ring ~capacity:ring_capacity in
        Tele.Hub.add_sink hub r;
        Some r
      end
    in
    ( Some hub,
      ring,
      fun () ->
        Tele.Hub.close hub;
        List.iter (fun f -> f ()) !closers )
  end

let ring_summary ring =
  let events =
    List.map
      (fun (s : Tele.Event.stamped) -> s.Tele.Event.ev)
      (Tele.Sink.ring_events ring)
  in
  let meta, summary = Tele.Stats.of_events events in
  Tele.Stats.to_json ?meta summary

let emit_trace_arg =
  Arg.(value & opt (some string) None
       & info [ "emit-trace" ] ~docv:"FILE"
           ~doc:"Write the telemetry event stream as JSON Lines to $(docv) \
                 (one event per line; deterministic under --seed).")

let emit_json_arg =
  Arg.(value & opt (some string) None
       & info [ "emit-json" ] ~docv:"FILE"
           ~doc:"Write a machine-readable summary (JSON) to $(docv).")

let emit_catapult_arg =
  Arg.(value & opt (some string) None
       & info [ "emit-catapult" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event (catapult) export to $(docv); \
                 load it in about://tracing or ui.perfetto.dev.")

(* ---- run ---- *)

let run_cmd topo algo_name daemon_name workload_name steps seed disc random_init
    fault_at trace timeline engine emit_trace emit_json emit_catapult =
  let _, h = (topo : string * H.t) in
  let daemon = or_die (daemon daemon_name) in
  let workload = or_die (workload workload_name ~disc h) in
  let runner = or_die (runner algo_name) in
  let init = if random_init then `Random else `Canonical in
  let faults =
    Option.map
      (fun at ~step ->
        if step = at then List.init (max 1 (H.n h / 2)) (fun i -> 2 * i mod H.n h)
        else [])
      fault_at
  in
  (* generous per-step event bound so the ring never wraps (a wrapped ring
     would lose the run_start header and skew the aggregated summary) *)
  let ring_capacity =
    if emit_json = None then 0
    else (steps * ((4 * H.n h) + (4 * H.m h) + 16)) + 64
  in
  let telemetry, ring, finish_telemetry =
    make_hub ~ring_capacity ~emit_trace ~emit_catapult ()
  in
  let record_trace = trace || timeline in
  let pack build = Model.pack ~n:(H.n h) ~requested:(engine = `Packed) build in
  let path = ref ("", "") in
  let note (pk : _ Model.packing) =
    path := (pk.Model.path, pk.Model.reason);
    Option.iter
      (fun hub ->
        Tele.Hub.emit hub (Tele.Event.Engine { path = pk.Model.path; reason = pk.Model.reason }))
      telemetry;
    pk.Model.hooks
  in
  let r =
    (* the runner records cannot carry the typed [?packed] hooks, so the
       paper algorithms dispatch through their typed driver instances *)
    match algo_name with
    | "cc1" ->
      let packed = note (pack (fun () -> Pk_cc1.hooks (Pk_cc1.build ~cap:cli_pack_cap h))) in
      X.Run_cc1.run ~seed ~init ?faults ?telemetry ~record_trace ?packed ~daemon
        ~workload ~steps h
    | "cc2" ->
      let packed = note (pack (fun () -> Pk_cc2.hooks (Pk_cc2.build ~cap:cli_pack_cap h))) in
      X.Run_cc2.run ~seed ~init ?faults ?telemetry ~record_trace ?packed ~daemon
        ~workload ~steps h
    | "cc3" ->
      let packed = note (pack (fun () -> Pk_cc3.hooks (Pk_cc3.build ~cap:cli_pack_cap h))) in
      X.Run_cc3.run ~seed ~init ?faults ?telemetry ~record_trace ?packed ~daemon
        ~workload ~steps h
    | _ ->
      ignore (note (pack (fun () -> failwith (algo_name ^ " has no packed tables"))));
      runner.X.run ~seed ~init ?faults ?telemetry ~record_trace ~daemon
        ~workload ~steps h
  in
  (match (emit_json, ring) with
   | Some file, Some rg -> write_json file (ring_summary rg)
   | _ -> ());
  finish_telemetry ();
  Format.printf "engine: %s (%s)@." (fst !path) (snd !path);
  Format.printf "%a@." Driver.pp_result r;
  if r.Driver.violations <> [] then begin
    Format.printf "@.violations:@.";
    List.iter (fun v -> Format.printf "  %a@." Spec.pp_violation v) r.Driver.violations
  end;
  Format.printf "@.final configuration:@.%a@." (Obs.pp_snapshot h) r.Driver.final_obs;
  (match r.Driver.trace with
   | Some tr when timeline ->
     Format.printf "@.meeting timeline:@.%a@." (Trace.pp_timeline ~width:72) tr
   | Some _ | None -> ());
  (match r.Driver.trace with
   | Some tr when trace -> Format.printf "@.trace:@.%a@." Trace.pp tr
   | Some _ | None -> ());
  if r.Driver.violations <> [] then exit 1

let run_term =
  Term.(
    const run_cmd $ topology_arg $ algo_arg $ daemon_arg $ workload_arg
    $ steps_arg $ seed_arg $ disc_arg $ random_init_arg $ fault_arg $ trace_arg
    $ timeline_arg $ engine_arg $ emit_trace_arg $ emit_json_arg
    $ emit_catapult_arg)

(* ---- mp (message-passing emulation) ---- *)

let mp_cmd topo algo_name workload_name steps seed disc random_init bias engine
    no_vclock emit_trace emit_json =
  let _, h = (topo : string * H.t) in
  let workload = or_die (workload workload_name ~disc h) in
  let ring_capacity =
    if emit_json = None then 0 else (steps * ((2 * H.n h) + 8)) + 64
  in
  let telemetry, ring, finish_telemetry =
    make_hub ~ring_capacity ~emit_trace ~emit_catapult:None ()
  in
  let emit ev =
    match telemetry with Some hub -> Tele.Hub.emit hub ev | None -> ()
  in
  let module Run (A : Snapcc_runtime.Model.ALGO) = struct
    module E = Snapcc_mp.Mp_engine.Make (A)

    let go (pk : A.state Model.packing) =
      let eng =
        E.create ~seed
          ~init:(if random_init then `Random else `Canonical)
          ~deliver_bias:bias ~vclock:(not no_vclock) ?telemetry
          ?packed:pk.Model.hooks h
      in
      let spec = Spec.create ?telemetry h ~initial:(E.obs eng) in
      emit (Tele.Event.Engine { path = pk.Model.path; reason = pk.Model.reason });
      emit
        (Tele.Event.Run_start
           { algo = A.name; daemon = "mp-scheduler";
             workload = Workload.name workload; seed; n = H.n h; m = H.m h;
             topo = Snapcc_hypergraph.Hypergraph_io.to_string h });
      let metrics =
        Snapcc_analysis.Metrics.create ?telemetry h ~initial:(E.obs eng)
      in
      let before = ref (E.obs eng) in
      for i = 0 to steps - 1 do
        let inputs = Workload.inputs workload !before in
        ignore (E.step eng ~inputs);
        let after = E.obs eng in
        Spec.on_step spec ~step:i
          ~request_out:inputs.Snapcc_runtime.Model.request_out ~before:!before
          ~after;
        Snapcc_analysis.Metrics.on_step metrics ~step:i ~round:0
          ~before:!before ~after;
        Workload.observe workload ~step:i after;
        before := after
      done;
      emit (Tele.Event.Run_end { outcome = "steps_exhausted"; steps; rounds = 0 });
      (match (emit_json, ring) with
       | Some file, Some rg -> write_json file (ring_summary rg)
       | _ -> ());
      finish_telemetry ();
      Format.printf "engine: %s (%s%s)@." pk.Model.path pk.Model.reason
        (if pk.Model.hooks <> None && E.engine_kind eng = `Closure then
           "; dropped to closures: interner overflow"
         else "");
      Format.printf
        "%s over message passing: %d steps, %d meetings, %d violations@."
        A.name steps
        (List.length (Spec.convened spec))
        (List.length (Spec.violations spec));
      Format.printf
        "messages: %d sent, %d delivered (%d in flight); max staleness %d steps@."
        (E.messages_sent eng) (E.messages_delivered eng) (E.in_flight eng)
        (E.max_staleness eng);
      List.iteri
        (fun i v -> if i < 10 then Format.printf "  %a@." Spec.pp_violation v)
        (Spec.violations spec);
      Format.printf "@.final configuration:@.%a@." (Obs.pp_snapshot h) (E.obs eng)
  end in
  let pack build = Model.pack ~n:(H.n h) ~requested:(engine = `Packed) build in
  match algo_name with
  | "cc1" ->
    let module R = Run (X.Cc1) in
    R.go (pack (fun () -> Pk_cc1.hooks (Pk_cc1.build ~cap:cli_pack_cap h)))
  | "cc2" ->
    let module R = Run (X.Cc2) in
    R.go (pack (fun () -> Pk_cc2.hooks (Pk_cc2.build ~cap:cli_pack_cap h)))
  | "cc3" ->
    let module R = Run (X.Cc3) in
    R.go (pack (fun () -> Pk_cc3.hooks (Pk_cc3.build ~cap:cli_pack_cap h)))
  | a -> or_die (Error (Printf.sprintf "mp supports cc1|cc2|cc3, not %S" a))

(* validated argument converters, shared by `ccsim mp' and `ccsim net' *)

let checked_steps_arg =
  Arg.(value & opt pos_int_conv 10_000
       & info [ "steps" ] ~docv:"N" ~doc:"Step horizon (positive).")

let bias_arg =
  Arg.(value & opt probability_conv 0.5
       & info [ "deliver-bias" ] ~docv:"P"
           ~doc:"Probability in [0,1] that a step delivers a message rather \
                 than activating a process (lower = more staleness).")

let no_vclock_arg =
  Arg.(value & flag
       & info [ "no-vclock" ]
           ~doc:"Ablation: disable vector-clock stamping on the trace.  The \
                 execution is unchanged (stamping never touches the rng); \
                 `ccsim trace' will refuse the resulting trace.")

let mp_term =
  Term.(
    const mp_cmd $ topology_arg $ algo_arg $ workload_arg $ checked_steps_arg
    $ seed_arg $ disc_arg $ random_init_arg $ bias_arg $ engine_arg
    $ no_vclock_arg $ emit_trace_arg $ emit_json_arg)

(* ---- net (networked multi-process runtime) ---- *)

module Net = Snapcc_net

let faults_conv =
  let parse s =
    match Net.Faults.parse s with Ok p -> Ok p | Error e -> Error (`Msg e)
  in
  Arg.conv ~docv:"SPEC" (parse, Net.Faults.pp)

let faults_arg =
  Arg.(value & opt faults_conv Net.Faults.none
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Fault plan for the links, netem style: comma-separated \
                 drop=P, delay=STEPS, dup=P, reorder=P, corrupt=P, \
                 partition=FROM-TO (e.g. \
                 drop=0.05,delay=2,partition=100-400).  Deterministic \
                 under --seed.")

let net_nprocs_arg =
  Arg.(value & opt (some pos_int_conv) None
       & info [ "n" ] ~docv:"N"
           ~doc:"Shorthand for --topology ring<N> (N node processes).")

let burst_arg = Cli.burst_arg
let soak_arg = Cli.soak_arg

let fork_arg =
  Arg.(value & flag
       & info [ "fork" ]
           ~doc:"Fork the node processes from this one (socketpairs) \
                 instead of spawning `ccsim node' executables over TCP \
                 loopback.")

let dash_arg =
  Arg.(value & flag
       & info [ "dash" ]
           ~doc:"Render an in-place live dashboard on stderr while the soak \
                 runs (steps, convenes, deliveries, drops by reason, latency \
                 and waiting percentiles, verdicts).")

let prom_arg =
  Arg.(value & opt (some string) None
       & info [ "prom" ] ~docv:"FILE"
           ~doc:"Rewrite $(docv) atomically (temp file + rename) with a \
                 Prometheus text exposition of the live metrics registry, \
                 ready for a file-based scrape.")

let live_interval_arg =
  Arg.(value & opt (some float) None
       & info [ "live-interval" ] ~docv:"SECONDS"
           ~doc:"Throttle for --dash/--prom refreshes (default 0.5s / 2s).")

let net_cmd topo nprocs algo_name workload_name steps seed disc random_init
    bias faults burst soak fork engine emit_trace emit_json emit_catapult dash
    prom live_interval =
  let h =
    match nprocs with
    | Some k -> snd (or_die (resolve_topo ~n:k "ring"))
    | None -> snd (topo : string * H.t)
  in
  let workload = or_die (workload workload_name ~disc h) in
  let burst = Cli.resolve_burst ~steps ~soak burst in
  let ring_capacity =
    if emit_json = None then 0 else (steps * ((6 * H.n h) + 16)) + 64
  in
  let telemetry, ring, finish_telemetry =
    make_hub ~ring_capacity ~force:(dash || prom <> None) ~emit_trace
      ~emit_catapult ()
  in
  (match telemetry with
   | Some hub when dash || prom <> None ->
     let live = Tele.Live.create ~registry:(Tele.Hub.registry hub) () in
     let now = Unix.gettimeofday in
     if dash then
       Tele.Live.add_dash ?interval:live_interval live ~now
         ~write:(fun s -> output_string stderr s; flush stderr);
     (match prom with
      | Some path -> Tele.Live.add_prom ?interval:live_interval live ~now ~path
      | None -> ());
     Tele.Hub.add_sink hub (Tele.Live.sink live)
   | Some _ | None -> ());
  let mode =
    if fork then Net.Spawn.Fork else Net.Spawn.Exec Sys.executable_name
  in
  let cfg =
    { Net.Orchestrator.algo = algo_name; seed;
      init = (if random_init then `Random else `Canonical);
      deliver_bias = bias; steps; plan = faults; burst; engine }
  in
  let r = or_die (Net.Orchestrator.run ?telemetry ~mode ~workload cfg h) in
  (match (emit_json, ring) with
   | Some file, Some rg -> write_json file (ring_summary rg)
   | _ -> ());
  finish_telemetry ();
  Format.printf "%s over %d node processes (%s wire), faults: %a@." algo_name
    (H.n h)
    (match engine with `Packed -> "packed-delta" | `Closure -> "full-snapshot")
    Net.Faults.pp faults;
  Format.printf "%a@." Net.Orchestrator.pp_result r;
  (match r.Net.Orchestrator.latencies_us with
   | [] -> ()
   | l ->
     let pc q = Snapcc_analysis.Metrics.percentile q l in
     Format.printf
       "delivery latency: p50 %dus, p90 %dus, p99 %dus, max %dus (%d samples)@."
       (pc 0.50) (pc 0.90) (pc 0.99)
       (Snapcc_analysis.Metrics.maximum l)
       (List.length l);
     List.iter
       (fun (label, c) ->
         if c > 0 then Format.printf "  %-10s %6d@." label c)
       (Tele.Registry.bucket_counts l));
  if r.Net.Orchestrator.violations <> [] then begin
    Format.printf "@.violations:@.";
    List.iter
      (fun v -> Format.printf "  %a@." Spec.pp_violation v)
      r.Net.Orchestrator.violations
  end;
  Format.printf "@.final configuration:@.%a@." (Obs.pp_snapshot h)
    r.Net.Orchestrator.final_obs;
  if r.Net.Orchestrator.violations <> [] then exit 1

let net_term =
  Term.(
    const net_cmd $ topology_arg $ net_nprocs_arg $ algo_arg $ workload_arg
    $ checked_steps_arg $ seed_arg $ disc_arg $ random_init_arg $ bias_arg
    $ faults_arg $ burst_arg $ soak_arg $ fork_arg $ engine_arg
    $ emit_trace_arg $ emit_json_arg $ emit_catapult_arg $ dash_arg $ prom_arg
    $ live_interval_arg)

(* ---- bounds ---- *)

let bounds_cmd topo =
  let _, h = (topo : string * H.t) in
  Format.printf "%a@.@." H.pp h;
  if H.m h > 18 then
    Format.printf "(%d committees: exact bounds may take a while)@." (H.m h);
  Format.printf "%a@." Matching.pp_bounds (Matching.bounds h)

let bounds_term = Term.(const bounds_cmd $ topology_arg)

(* ---- experiment ---- *)

let experiment_cmd id quick =
  match id with
  | "all" ->
    List.iter
      (fun (e : Registry.entry) ->
        Format.printf "%a@.@." Table.pp (e.Registry.run ~quick))
      Registry.all
  | id ->
    (match Registry.find id with
     | Some e -> Format.printf "%a@." Table.pp (e.Registry.run ~quick)
     | None ->
       Format.eprintf "ccsim: unknown experiment %S (try `ccsim list')@." id;
       exit 2)

let experiment_id_arg =
  Arg.(value & pos 0 string "all" & info [] ~docv:"ID"
         ~doc:"Experiment id (see `ccsim list'), or `all'.")

let experiment_term = Term.(const experiment_cmd $ experiment_id_arg $ quick_arg)

(* ---- lint (static analysis, lib/statics) ---- *)

module Lint_report = Snapcc_statics.Report

(* Lintable algorithms with their allow lists.  The centralized baseline
   deliberately violates locality (every professor reads the coordinator's
   plan, the coordinator reads everyone, see lib/baselines/central.ml), so
   its locality findings are waived rather than fatal. *)
let lint_targets : (string * (module Model.ALGO) * Lint_report.rule list) list =
  [ ("cc1", (module X.Cc1), []);
    ("cc2", (module X.Cc2), []);
    ("cc3", (module X.Cc3), []);
    ("dining", (module X.Dining), []);
    ("central", (module X.Central), [ Lint_report.Locality ]);
  ]

let lint_default_topos = "fig1,ring6,path5,star5,single4"

(* The exact tier enumerates full domain products, so its default families
   are the small ones it finishes in seconds; triangle3 (minutes for CC3)
   stays opt-in via -t. *)
let lint_exact_default_topos = "single2,line3"

module Lint_exact = Snapcc_statics.Exact
module Lint_artifact = Snapcc_statics.Artifact

(* Exact-tier instantiations of the lint targets: the committee algorithms
   composed with a token layer as model-checkable systems, the baselines
   directly (they ship their own domain/canon). *)
let lint_exact_sys key token : (module Snapcc_mc.System.S) =
  match key with
  | "dining" -> (module Snapcc_mc.Systems.Dining_sys)
  | "central" -> (module Snapcc_mc.Systems.Central_sys)
  | k -> (
    match Snapcc_mc.Systems.find k with
    | Some e -> e.Snapcc_mc.Systems.make token
    | None ->
      or_die (Error (Printf.sprintf "no exact-tier system for %S" k)))

let lint_finding_json (f : Lint_report.finding) =
  Tele.Json.Obj
    [ ("rule", Tele.Json.String (Lint_report.rule_name f.Lint_report.rule));
      ("action", Tele.Json.String f.Lint_report.action);
      ("proc", Tele.Json.Int f.Lint_report.proc);
      ("count", Tele.Json.Int f.Lint_report.count);
      ("detail", Tele.Json.String f.Lint_report.detail) ]

let lint_report_json (r : Lint_report.t) =
  let strs xs = Tele.Json.List (List.map (fun s -> Tele.Json.String s) xs) in
  Tele.Json.Obj
    [ ("algo", Tele.Json.String r.Lint_report.algo);
      ("topo", Tele.Json.String r.Lint_report.topo);
      ("tier", Tele.Json.String r.Lint_report.tier);
      ("ok", Tele.Json.Bool (Lint_report.ok r));
      ("configs", Tele.Json.Int r.Lint_report.configs);
      ("evals", Tele.Json.Int r.Lint_report.evals);
      ("findings", Tele.Json.List (List.map lint_finding_json r.Lint_report.findings));
      ("waived", Tele.Json.List (List.map lint_finding_json r.Lint_report.waived));
      ("dead", strs r.Lint_report.dead);
      ("dead_proven", strs r.Lint_report.dead_proven);
      ("dead_unreached", strs r.Lint_report.dead_unreached) ]

module Lint_sym = Snapcc_statics.Symmetry

let lint_sym_json (so : Lint_sym.outcome) =
  let open Tele.Json in
  Obj
    [ ("group_order", Int (Snapcc_mc.Symmetry.order so.Lint_sym.group));
      ("generators", Int (List.length so.Lint_sym.group.Snapcc_mc.Symmetry.gens));
      ("aut_order", Int so.Lint_sym.aut_order);
      ("candidates", Int so.Lint_sym.candidates);
      ("admitted", List (List.map (fun s -> String s) so.Lint_sym.admitted));
      ("rejected",
       List
         (List.map
            (fun (name, reason) ->
              Obj [ ("name", String name); ("reason", String reason) ])
            so.Lint_sym.rejected));
      ("pairs", Int so.Lint_sym.pairs);
      ("seconds", Float so.Lint_sym.seconds) ]

let lint_exact_json (r : Lint_report.t) (cov : Lint_exact.coverage)
    (unmatched : Lint_report.finding list) (sym : Lint_sym.outcome option) =
  match lint_report_json r with
  | Tele.Json.Obj fields ->
    Tele.Json.Obj
      (fields
      @ (match sym with
        | Some so -> [ ("symmetry", lint_sym_json so) ]
        | None -> [])
      @ [ ("cells", Tele.Json.Int cov.Lint_exact.cells);
          ("seconds", Tele.Json.Float cov.Lint_exact.seconds);
          ("complete", Tele.Json.Bool cov.Lint_exact.complete);
          ("stored", Tele.Json.Bool cov.Lint_exact.stored);
          ("tainted", Tele.Json.Bool cov.Lint_exact.tainted);
          ("proc_status",
           Tele.Json.List
             (List.map
                (fun (p, reason) ->
                  Tele.Json.Obj
                    [ ("proc", Tele.Json.Int p);
                      ("reason", Tele.Json.String reason) ])
                cov.Lint_exact.proc_status));
          ("agreement_unmatched",
           Tele.Json.List (List.map lint_finding_json unmatched)) ])
  | j -> j

let lint_cmd topos algos seed seeds max_configs verbose emit_json exact token
    tables_dir table_cap symmetry orbits_dir =
  (* the symmetry analyzer proves against the exact tables, so --symmetry
     implies the exact tier *)
  let exact = exact || symmetry in
  let names s = String.split_on_char ',' s |> List.filter (fun x -> x <> "") in
  let targets =
    match algos with
    | "all" -> lint_targets
    | s ->
      List.map
        (fun a ->
          match List.find_opt (fun (name, _, _) -> name = a) lint_targets with
          | Some t -> t
          | None -> or_die (Error (Printf.sprintf "lint knows %s, not %S"
                                     (String.concat "|" (List.map (fun (n, _, _) -> n) lint_targets))
                                     a)))
        (names s)
  in
  let topos =
    let s =
      match topos with
      | Some s -> s
      | None -> if exact then lint_exact_default_topos else lint_default_topos
    in
    List.map (fun t -> or_die (resolve_topo t)) (names s)
  in
  (* sampled tier, always: the exact tier judges its findings below *)
  let sampled =
    List.concat_map
      (fun (key, (module A : Model.ALGO), allow) ->
        let module An = Snapcc_statics.Analyze.Make (A) in
        List.map
          (fun (topo, h) ->
            (key, topo, An.analyze ~seed ~seeds ~max_configs ~allow ~topo h))
          topos)
      targets
  in
  let disagreements = ref [] in
  let sampled, exact_reports =
    if not exact then (List.map (fun (_, _, r) -> r) sampled, [])
    else begin
      let exacts =
        List.concat_map
          (fun (key, _, allow) ->
            let (module S : Snapcc_mc.System.S) = lint_exact_sys key token in
            let module Ex = Lint_exact.Make (S) in
            let module Tb = Snapcc_mc.Tables.Make (S) in
            let module Sym = Lint_sym.Make (S) in
            List.map
              (fun (topo, h) ->
                let report, cov, tb =
                  Ex.run ?cap:table_cap ~allow ~algo:S.name ~topo h
                in
                (match tables_dir with
                 | None -> ()
                 | Some dir ->
                   let file =
                     Filename.concat dir
                       (Printf.sprintf "tables-%s-%s.txt" key topo)
                   in
                   Lint_artifact.save file (Tb.to_portable ~algo:S.name ~topo tb));
                let sym =
                  if not symmetry then None
                  else begin
                    let so = Sym.run ?cap:table_cap h ~tables:tb in
                    (match orbits_dir with
                     | None -> ()
                     | Some dir ->
                       Lint_sym.save
                         (Filename.concat dir
                            (Printf.sprintf "orbits-%s-%s.txt" key topo))
                         ~algo:S.name ~topo h so);
                    Some so
                  end
                in
                (key, topo, report, cov, sym))
              topos)
          targets
      in
      (* the baselines have no token layer; for the committee algorithms the
         tiers only describe the same system when the tokens match *)
      let comparable key = token = "tree" || key = "dining" || key = "central" in
      let sampled' =
        List.map
          (fun (key, topo, (s : Lint_report.t)) ->
            match
              List.find_opt
                (fun (k, t, _, _, _) -> k = key && t = topo && comparable key)
                exacts
            with
            | None -> s
            | Some (_, _, e, cov, _) ->
              let unmatched = Lint_exact.agreement ~exact:e ~sampled:s in
              if unmatched <> [] then
                disagreements := (key, topo, unmatched) :: !disagreements;
              (* reclassify sampled dead suspects on exact evidence *)
              Lint_report.classify_dead ~proven:e.Lint_report.dead_proven
                ~live:cov.Lint_exact.live s)
          sampled
      in
      (sampled', exacts)
    end
  in
  let exact_plain = List.map (fun (_, _, r, _, _) -> r) exact_reports in
  let reports = sampled @ exact_plain in
  Format.printf "%a@." Table.pp (Lint_report.summary_table reports);
  List.iter
    (fun r ->
      if (not (Lint_report.ok r)) || r.Lint_report.waived <> [] || verbose then
        Format.printf "@.%a@." Table.pp (Lint_report.detail_table r))
    reports;
  List.iter
    (fun (key, topo, _, cov, sym) ->
      Format.printf
        "exact %s on %s: %d (cell, mode) pairs in %.2fs%s%s@." key topo
        cov.Lint_exact.cells cov.Lint_exact.seconds
        (if cov.Lint_exact.complete then ", complete"
         else ", INCOMPLETE (skipped passes)")
        (if cov.Lint_exact.tainted then ", TAINTED" else "");
      List.iter
        (fun (p, reason) -> Format.printf "  proc %d: %s@." p reason)
        cov.Lint_exact.proc_status;
      match sym with
      | None -> ()
      | Some (so : Lint_sym.outcome) ->
        Format.printf
          "symmetry %s on %s: aut group %d%s, %d candidate(s), admitted \
           group order %d%s (%d pairs, %.2fs)@."
          key topo so.Lint_sym.aut_order
          (if so.Lint_sym.aut_complete then "" else "+")
          so.Lint_sym.candidates
          (Snapcc_mc.Symmetry.order so.Lint_sym.group)
          (match so.Lint_sym.admitted with
          | [] -> ""
          | l -> Printf.sprintf " [%s]" (String.concat ", " l))
          so.Lint_sym.pairs so.Lint_sym.seconds;
        if verbose then
          List.iter
            (fun (name, reason) ->
              Format.printf "  rejected %s: %s@." name reason)
            so.Lint_sym.rejected)
    exact_reports;
  let lines = List.concat_map Lint_report.to_lines reports in
  if lines <> [] then begin
    Format.printf "@.";
    List.iter (fun l -> Format.printf "%s@." l) lines
  end;
  List.iter
    (fun (key, topo, unmatched) ->
      List.iter
        (fun (f : Lint_report.finding) ->
          Format.printf
            "lint algo=%s topo=%s disagreement: sampled %s finding on \
             action=%s proc=%d not reproduced by the exact tier@."
            key topo
            (Lint_report.rule_name f.Lint_report.rule)
            f.Lint_report.action f.Lint_report.proc)
        unmatched)
    !disagreements;
  let ok = List.for_all Lint_report.ok reports && !disagreements = [] in
  (match emit_json with
   | None -> ()
   | Some file ->
     let exact_json =
       List.map
         (fun (key, topo, r, cov, sym) ->
           let unmatched =
             match
               List.find_opt (fun (k, t, _) -> k = key && t = topo)
                 !disagreements
             with
             | Some (_, _, u) -> u
             | None -> []
           in
           lint_exact_json r cov unmatched sym)
         exact_reports
     in
     write_json file
       (Tele.Json.Obj
          ([ ("ok", Tele.Json.Bool ok);
             ("reports",
              Tele.Json.List (List.map lint_report_json sampled)) ]
          @ if exact then [ ("exact", Tele.Json.List exact_json) ] else [])));
  if not ok then exit 1

let lint_topos_arg =
  Arg.(value & opt (some string) None
       & info [ "t"; "topologies" ] ~docv:"TOPOS"
           ~doc:(Printf.sprintf
                   "Comma-separated topologies to analyze (same names as \
                    --topology).  Default %s, or %s with --exact."
                   lint_default_topos lint_exact_default_topos))

let lint_algos_arg =
  Arg.(value & opt string "all"
       & info [ "a"; "algos" ] ~docv:"ALGOS"
           ~doc:"Comma-separated algorithms (cc1|cc2|cc3|dining|central), or `all'.")

let lint_seeds_arg =
  Arg.(value & opt nonneg_int_conv 24 & info [ "seeds" ] ~docv:"N"
         ~doc:"Random (post-fault) configurations seeded into the exploration.")

let lint_max_configs_arg =
  Arg.(value & opt pos_int_conv 240 & info [ "max-configs" ] ~docv:"N"
         ~doc:"Cap on the exhaustive reachable-configuration enumeration.")

let lint_verbose_arg =
  Arg.(value & flag & info [ "verbose" ]
         ~doc:"Print per-report detail tables even for clean passes.")

let lint_exact_arg =
  Arg.(value & flag
       & info [ "exact" ]
           ~doc:"Additionally run the exact tier: enumerate every process's \
                 full domain-product support under all input modes, prove \
                 (not sample) the side conditions and dead actions, check \
                 that every sampled finding is reproduced by the exact \
                 tier, and reclassify sampled dead-action suspects as \
                 proven or unreached-in-sample.")

let lint_token_arg =
  Arg.(value & opt string "tree"
       & info [ "token" ] ~docv:"TOKEN"
           ~doc:"Token layer composed under cc1/cc2/cc3 for the exact tier \
                 (vring|tree|null).  Sampled/exact agreement is only \
                 checked for `tree', the layer the sampled targets use.")

let lint_tables_arg =
  Arg.(value & opt (some dir) None
       & info [ "tables" ] ~docv:"DIR"
           ~doc:"Write one snapcc-tables artifact per (algorithm, topology) \
                 into DIR (requires --exact).")

let lint_table_cap_arg =
  Arg.(value & opt (some pos_int_conv) None
       & info [ "table-cap" ] ~docv:"N"
           ~doc:"Exact-tier enumeration cap on (cell, mode) pairs per \
                 process (default 2^27); overruns are reported as skipped \
                 passes, never silently truncated.")

let lint_symmetry_arg =
  Arg.(value & flag
       & info [ "symmetry" ]
           ~doc:"Run the static symmetry analyzer (implies --exact): \
                 enumerate conflict-hypergraph automorphisms, lift them \
                 together with declared internal state symmetries to \
                 candidate algorithm symmetries, and admit exactly those \
                 proven to commute with every packed guard/footprint table \
                 entry.")

let lint_orbits_arg =
  Arg.(value & opt (some dir) None
       & info [ "orbits" ] ~docv:"DIR"
           ~doc:"Write one snapcc-orbits v1 certificate per (algorithm, \
                 topology) into DIR (requires --symmetry); each certificate \
                 passes `ccsim orbits'.")

let lint_term =
  Term.(
    const lint_cmd $ lint_topos_arg $ lint_algos_arg $ seed_arg $ lint_seeds_arg
    $ lint_max_configs_arg $ lint_verbose_arg $ emit_json_arg $ lint_exact_arg
    $ lint_token_arg $ lint_tables_arg $ lint_table_cap_arg
    $ lint_symmetry_arg $ lint_orbits_arg)

(* ---- orbits (certificate verifier) ---- *)

let orbits_cmd files =
  let failures =
    List.fold_left
      (fun acc file ->
        match Snapcc_statics.Symmetry.verify_file file with
        | Ok () ->
          Format.printf "%s: OK@." file;
          acc
        | Error msg ->
          Format.printf "%s: FAILED: %s@." file msg;
          acc + 1)
      0 files
  in
  if failures > 0 then begin
    Format.printf "%d certificate(s) failed verification@." failures;
    exit 1
  end

let orbits_files_arg =
  Arg.(non_empty & pos_all string []
       & info [] ~docv:"FILE" ~doc:"snapcc-orbits v1 certificate file(s).")

let orbits_term = Term.(const orbits_cmd $ orbits_files_arg)

(* ---- check (exhaustive model checker, lib/mc) ---- *)

module Mc_systems = Snapcc_mc.Systems
module Mc_explore = Snapcc_mc.Explore
module Mc_fairness = Snapcc_mc.Fairness
module Mc_report = Snapcc_mc.Report
module Cex = Snapcc_mc.Counterexample

let mc_report_json (r : Mc_report.t) =
  let open Tele.Json in
  Obj
    [ ("algo", String r.Mc_report.algo);
      ("token", String r.Mc_report.token);
      ("topo", String r.Mc_report.topo);
      ("outcome", String (Mc_report.outcome_name (Mc_report.outcome r)));
      ("product", Float r.Mc_report.product);
      ("configs", Int r.Mc_report.configs);
      ("transitions", Int r.Mc_report.transitions);
      ("complete", Bool r.Mc_report.complete);
      ("escapees", Int r.Mc_report.escapees);
      ("dead", List (List.map (fun s -> String s) r.Mc_report.dead));
      ("safety_violations", Int r.Mc_report.safety_violations);
      ("first_rule",
       (match r.Mc_report.first_rule with None -> Null | Some s -> String s));
      ("progress_checked", Bool r.Mc_report.progress_checked);
      ("sccs", Int r.Mc_report.sccs);
      ("largest_scc", Int r.Mc_report.largest_scc);
      ("deadlocks", Int r.Mc_report.deadlocks);
      ("livelocks", Int r.Mc_report.livelocks);
      ("seconds", Float r.Mc_report.seconds);
      ("states_per_sec", Float (Mc_report.states_per_sec r)) ]

let check_one ~(entry : Mc_systems.entry) ~token ~topo_name ~h ~max_states
    ~keep_going ~sample ~seed ~cex_path ~progress ~engine ~symmetry ~telemetry
    =
  let module S = (val entry.Mc_systems.make token) in
  let module Ex = Snapcc_mc.Explore.Make (S) in
  let module Tb = Snapcc_mc.Tables.Make (S) in
  let module CexM = Snapcc_mc.Counterexample.Make (S) in
  let t0 = Sys.time () in
  (* the packed engine reuses the exploration budget: a process whose
     table would dwarf the configuration cap falls back to closures *)
  let tables =
    match engine with
    | `Closure -> None
    | `Packed ->
      let tb = Tb.build ~cap:(max 1 max_states * 8) h in
      if progress then
        Format.eprintf "  guard tables: %s@."
          (if Tb.built tb then "built (packed fast path)"
           else "partial (closure fallback for skipped processes)");
      Some tb
  in
  let roots =
    if sample = 0 then `Domain
    else begin
      let rng = Random.State.make [| seed |] in
      let canonical = Array.init (H.n h) (S.init h) in
      `States
        (canonical
        :: List.init sample (fun _ ->
               Array.init (H.n h) (fun p -> S.random_init h rng p)))
    end
  in
  (* progress goes to stderr (stdout stays machine-parseable); the same
     hook feeds [mc_frontier] telemetry events when --emit-json asked *)
  let on_progress =
    if (not progress) && telemetry = None then None
    else
      Some
        (fun ~configs ~transitions ->
          if progress then
            Format.eprintf "  ... %d states, %d transitions@." configs
              transitions;
          match telemetry with
          | Some hub ->
            Tele.Hub.emit hub (Tele.Event.Mc_frontier { configs; transitions })
          | None -> ())
  in
  (* static symmetry admission: lift hypergraph automorphisms and declared
     internal symmetries over the exact tables, then explore the quotient *)
  let sym_group =
    match (symmetry, tables) with
    | `Off, _ -> None
    | `Auto, None ->
      Format.printf
        "  symmetry: skipped (needs the packed engine's exact tables)@.";
      None
    | `Auto, Some tb ->
      let module Sym = Snapcc_statics.Symmetry.Make (S) in
      let so = Sym.run h ~tables:tb in
      let open Snapcc_statics.Symmetry in
      let ord = Snapcc_mc.Symmetry.order so.group in
      if ord > 1 then begin
        Format.printf
          "  symmetry: admitted group of order %d from %d candidate(s) [%s] \
           (%d pairs streamed, %.2fs)@."
          ord so.candidates
          (String.concat ", " so.admitted)
          so.pairs so.seconds;
        Some so.group
      end
      else begin
        Format.printf
          "  symmetry: only the trivial group admitted (%d candidate(s) \
           rejected; exploring in full)@."
          so.candidates;
        if progress then
          List.iter
            (fun (name, reason) ->
              Format.eprintf "    rejected %s: %s@." name reason)
            so.rejected;
        None
      end
  in
  let result =
    Ex.explore ?on_progress ?tables ?symmetry:sym_group
      ~max_configs:max_states ~roots ~stop_on_first:(not keep_going) h
  in
  (match sym_group with
  | Some g ->
    Format.printf
      "  symmetry: stored %d orbit representatives (quotient of order %d)@."
      (Ex.n_configs result)
      (Snapcc_mc.Symmetry.order g)
  | None -> ());
  let seconds = Sys.time () -. t0 in
  let violations = Ex.violations result in
  let verdict =
    if Ex.complete result then
      Some
        (Mc_fairness.analyze ~n:(H.n h) ~n_configs:(Ex.n_configs result)
           ~succs:(Ex.succs_inout result)
           ~convenes:(Ex.convening result)
           ~enabled_mask:(Ex.enabled_inout result)
           ~committee_waiting:(Ex.committee_waiting result)
           ())
    else None
  in
  let report =
    { Mc_report.algo = entry.Mc_systems.key;
      token;
      topo = topo_name;
      product = Ex.product_size result;
      configs = Ex.n_configs result;
      transitions = Ex.n_transitions result;
      complete = Ex.complete result;
      escapees = List.length (Ex.escapees result);
      dead = Ex.dead_actions result;
      safety_violations = List.length violations;
      first_rule =
        (match violations with [] -> None | v :: _ -> Some v.Mc_explore.rule);
      progress_checked = verdict <> None;
      sccs = (match verdict with Some v -> v.Mc_fairness.sccs | None -> 0);
      largest_scc =
        (match verdict with Some v -> v.Mc_fairness.largest_scc | None -> 0);
      deadlocks =
        (match verdict with
        | Some v -> List.length v.Mc_fairness.deadlocks
        | None -> 0);
      livelocks =
        (match verdict with
        | Some v -> List.length v.Mc_fairness.livelocks
        | None -> 0);
      seconds }
  in
  Format.printf "%a@." Mc_report.pp report;
  List.iteri
    (fun i (p, s) ->
      if i < 5 then
        Format.printf "  escapee: process %d state %a@." p S.pp_state s)
    (Ex.escapees result);
  if report.Mc_report.dead <> [] then
    Format.printf
      "  note: action(s) never executed on any transition (suspect): %s@."
      (String.concat ", " report.Mc_report.dead);
  (* build, minimize, persist and replay-confirm one counterexample *)
  let cex =
    match violations with
    | v :: _ ->
      let root, steps = Ex.path_to result v.Mc_explore.source in
      let steps =
        steps
        @
        if v.Mc_explore.mode >= 0 then
          (* under --symmetry the recorded selection is relative to the
             canonical configuration; re-express it at the endpoint of the
             lifted path *)
          [ (v.Mc_explore.mode,
             Ex.lift_selection result v.Mc_explore.source v.Mc_explore.selected)
          ]
        else []
      in
      Some
        (Cex.of_safety ~algo:entry.Mc_systems.key ~token ~topo:topo_name
           ~rule:v.Mc_explore.rule ~detail:v.Mc_explore.detail ~init:root
           ~steps)
    | [] -> (
      match verdict with
      | Some { Mc_fairness.deadlocks = cid :: _; _ } ->
        let root, steps = Ex.path_to result cid in
        Some
          (Cex.of_deadlock ~algo:entry.Mc_systems.key ~token ~topo:topo_name
             ~detail:"terminal configuration with a fully waiting committee"
             ~init:root ~steps)
      | Some { Mc_fairness.livelocks = l :: _; _ } ->
        let root, steps = Ex.path_to result l.Mc_fairness.witness in
        Some
          (Cex.of_livelock ~algo:entry.Mc_systems.key ~token ~topo:topo_name
             ~detail:
               (Printf.sprintf
                  "weakly fair convene-free cycle (SCC of %d configurations)"
                  l.Mc_fairness.scc_size)
             ~init:root ~steps ~loop:l.Mc_fairness.cycle)
      | _ -> None)
  in
  (match cex with
  | None -> ()
  | Some c ->
    let c = CexM.minimize h c in
    Cex.to_file cex_path c;
    Format.printf "@.%a@.counterexample written to %s@." Cex.pp c cex_path;
    (match CexM.replay h c with
    | CexM.Reproduced msg -> Format.printf "replay confirms: %s@." msg
    | CexM.Not_reproduced msg ->
      Format.printf "WARNING: replay does not reproduce: %s@." msg
    | CexM.Invalid msg ->
      Format.printf "WARNING: counterexample not executable: %s@." msg));
  report

let check_cmd algos family n token max_states keep_going sample seed cex_path
    progress engine symmetry emit_json =
  let topo_name, h = or_die (resolve_topo ~n family) in
  (* frontier samples arrive every ~16k explored configurations, so even a
     multi-million-state run fits a small ring *)
  let telemetry, ring, finish_telemetry =
    make_hub
      ~ring_capacity:(if emit_json = None then 0 else 65_536)
      ~emit_trace:None ~emit_catapult:None ()
  in
  let keys =
    match algos with
    | "all" -> List.map (fun (e : Mc_systems.entry) -> e.Mc_systems.key) Mc_systems.all
    | s -> String.split_on_char ',' s |> List.filter (fun x -> x <> "")
  in
  let reports =
    List.map
      (fun key ->
        let entry =
          match Mc_systems.find key with
          | Some e -> e
          | None ->
            or_die
              (Error
                 (Printf.sprintf "unknown system %S (try %s)" key
                    (String.concat "|"
                       (List.map
                          (fun (e : Mc_systems.entry) -> e.Mc_systems.key)
                          Mc_systems.all))))
        in
        let res =
          try
            Ok
              (check_one ~entry ~token ~topo_name ~h ~max_states ~keep_going
                 ~sample ~seed ~cex_path ~progress ~engine ~symmetry ~telemetry)
          with Invalid_argument msg | Failure msg -> Error msg
        in
        Format.printf "@.";
        or_die res)
      keys
  in
  if List.length reports > 1 then
    Format.printf "%a@." Table.pp (Mc_report.summary_table reports);
  (match (emit_json, ring) with
   | Some file, Some rg ->
     let frontier =
       List.filter_map
         (fun (s : Tele.Event.stamped) ->
           match s.Tele.Event.ev with
           | Tele.Event.Mc_frontier { configs; transitions } ->
             Some
               (Tele.Json.Obj
                  [ ("configs", Tele.Json.Int configs);
                    ("transitions", Tele.Json.Int transitions) ])
           | _ -> None)
         (Tele.Sink.ring_events rg)
     in
     write_json file
       (Tele.Json.Obj
          [ ("reports", Tele.Json.List (List.map mc_report_json reports));
            ("frontier", Tele.Json.List frontier) ])
   | _ -> ());
  finish_telemetry ();
  if List.exists (fun r -> Mc_report.outcome r = Mc_report.Fail) reports then
    exit 1

let check_algo_arg =
  let doc =
    "System(s) to check: cc1|cc2|cc3|cc1-inverted|cc1-noready, a \
     comma-separated list, or `all'."
  in
  Arg.(value & opt string "cc1" & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)

let family_arg =
  let doc =
    "Topology family (line|triangle|ring|star|path|clique|single, combined \
     with -n), or a full topology name as for --topology."
  in
  Arg.(value & opt string "triangle" & info [ "family" ] ~docv:"FAM" ~doc)

let nprocs_arg =
  Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Number of professors.")

let check_token_arg =
  Arg.(value & opt string "vring"
       & info [ "token" ] ~docv:"TC"
           ~doc:"Token substrate: vring|tree|null.")

(* 8M default: with PR 6's packed single-word configuration keys this fits
   comfortably in memory, and it is what lets `--symmetry auto' finish
   instances (triangle3 cc3/vring: 23.9M configurations, 5.97M orbits
   under the admitted Z_4 counter gauge) whose full space stays capped. *)
let max_states_arg =
  Arg.(value & opt int 8_000_000
       & info [ "max-states" ] ~docv:"N"
           ~doc:"Memory cap on stored configurations (exceeding it makes \
                 the verdict INCOMPLETE).")

let keep_going_arg =
  Arg.(value & flag
       & info [ "keep-going" ]
           ~doc:"Explore the full space even after a safety violation \
                 (default: stop at the first one).")

let sample_arg =
  Arg.(value & opt int 0
       & info [ "sample" ] ~docv:"K"
           ~doc:"Instead of all domain configurations, explore from the \
                 canonical initial configuration plus K seeded random \
                 (post-fault) ones — for instances whose domain product is \
                 out of reach.  0 = exhaustive (default).")

let cex_out_arg =
  Arg.(value & opt string "ccsim-cex.txt"
       & info [ "cex" ] ~docv:"FILE"
           ~doc:"Where to write the minimized counterexample, if any.")

let check_progress_arg =
  Arg.(value & flag & info [ "progress" ]
         ~doc:"Report exploration progress on stderr.")

let check_symmetry_arg =
  let sym_conv : [ `Auto | `Off ] Arg.conv =
    Arg.enum [ ("auto", `Auto); ("off", `Off) ]
  in
  Arg.(value & opt sym_conv `Off
       & info [ "symmetry" ] ~docv:"auto|off"
           ~doc:"Quotient the exploration by the statically admitted \
                 symmetry group (`auto'): hypergraph automorphisms and \
                 declared internal symmetries are proven against the exact \
                 guard tables, then only one configuration per orbit is \
                 stored.  Verdicts and counterexamples are unchanged \
                 (paths are lifted back to concrete runs).  Requires the \
                 packed engine.  Default `off'.")

let check_term =
  Term.(
    const check_cmd $ check_algo_arg $ family_arg $ nprocs_arg $ check_token_arg
    $ max_states_arg $ keep_going_arg $ sample_arg $ seed_arg $ cex_out_arg
    $ check_progress_arg $ engine_arg $ check_symmetry_arg $ emit_json_arg)

(* ---- smc (statistical model checking) ---- *)

module Smc = Snapcc_smc

let smc_cmd family n algo_name daemon_name workload_name trials budget workers
    seed confidence disc engine sprt sprt_delta sprt_within emit_trace
    emit_json =
  let topo_name, h = or_die (resolve_topo ?n family) in
  let telemetry, _ring, finish_telemetry =
    make_hub ~emit_trace ~emit_catapult:None ()
  in
  let cfg =
    { Smc.Runner.algo = algo_name;
      topo_name;
      topo = h;
      daemon = daemon_name;
      workload = workload_name;
      disc;
      budget;
      trials;
      workers;
      seed;
      confidence;
      engine;
      sprt;
      sprt_delta;
      sprt_within }
  in
  let r = Smc.Runner.run ?telemetry cfg in
  finish_telemetry ();
  let report = or_die r in
  (match emit_json with
   | Some file -> write_json file (Smc.Report.to_json report)
   | None -> ());
  Format.printf "%a@." Smc.Report.pp report;
  if not (Smc.Report.ok report) then exit 1

let smc_family_arg =
  let doc =
    "Topology family (ring|line|triangle|star|path|clique|single, combined \
     with -n), or a full topology name as for --topology."
  in
  Arg.(value & opt string "ring" & info [ "family" ] ~docv:"FAM" ~doc)

let smc_n_arg =
  Arg.(value & opt (some pos_int_conv) None
       & info [ "n" ] ~docv:"N" ~doc:"Number of professors (sizes --family).")

let smc_algo_arg =
  let doc =
    "Algorithm: cc1|cc2|cc3|cc1-vring|cc2-vring|cc3-vring (the -vring \
     variants run over the virtual-ring token layer `ccsim check' \
     enumerates, for cross-validation against exact counts)."
  in
  Arg.(value & opt string "cc1" & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)

let smc_trials_arg =
  Arg.(value & opt pos_int_conv 1000
       & info [ "trials" ] ~docv:"N"
           ~doc:"Monte-Carlo trial count (positive; the truncation bound in \
                 SPRT mode).")

let smc_budget_arg =
  Arg.(value & opt pos_int_conv 1000
       & info [ "budget" ] ~docv:"N" ~doc:"Per-trial step horizon (positive).")

let smc_workers_arg =
  Arg.(value & opt pos_int_conv 1
       & info [ "workers" ] ~docv:"N"
           ~doc:"Parallel workers (positive): trials run on at most this many \
                 OCaml domains, capped at the core count.  The merged report \
                 and trace are byte-identical for every worker count.")

let smc_confidence_arg =
  Arg.(value & opt probability_conv 0.95
       & info [ "confidence" ] ~docv:"P"
           ~doc:"Confidence level for every interval; in SPRT mode the error \
                 bounds are alpha = beta = 1 - P.")

let smc_sprt_arg =
  Arg.(value & opt (some probability_conv) None
       & info [ "sprt" ] ~docv:"THETA"
           ~doc:"SPRT mode: sequentially test \"P(stabilized within \
                 --sprt-within steps) >= THETA\" with early stopping \
                 instead of the fixed-size estimate; exits 1 when the claim \
                 is rejected.")

let smc_sprt_delta_arg =
  Arg.(value & opt probability_conv 0.02
       & info [ "sprt-delta" ] ~docv:"D"
           ~doc:"SPRT indifference half-width around THETA.")

let smc_sprt_within_arg =
  Arg.(value & opt (some pos_int_conv) None
       & info [ "sprt-within" ] ~docv:"N"
           ~doc:"Success horizon (steps) for the SPRT claim; default \
                 --budget.")

let smc_term =
  Term.(
    const smc_cmd $ smc_family_arg $ smc_n_arg $ smc_algo_arg $ daemon_arg
    $ workload_arg $ smc_trials_arg $ smc_budget_arg $ smc_workers_arg
    $ seed_arg $ smc_confidence_arg $ disc_arg $ engine_arg $ smc_sprt_arg
    $ smc_sprt_delta_arg $ smc_sprt_within_arg $ emit_trace_arg
    $ emit_json_arg)

(* ---- replay ---- *)

let replay_cmd file =
  let cex =
    match Cex.of_file file with
    | c -> c
    | exception (Failure msg | Sys_error msg) -> or_die (Error msg)
  in
  let entry =
    match Mc_systems.find cex.Cex.algo with
    | Some e -> e
    | None -> or_die (Error (Printf.sprintf "unknown system %S" cex.Cex.algo))
  in
  let h = or_die (topology cex.Cex.topo) in
  let res =
    try
      let module S = (val entry.Mc_systems.make cex.Cex.token) in
      let module CexM = Snapcc_mc.Counterexample.Make (S) in
      Format.printf "%a@.@.replaying through engine + monitors:@." Cex.pp cex;
      Ok
        (match CexM.replay ~trace:Format.std_formatter h cex with
        | CexM.Reproduced msg ->
          Format.printf "@.reproduced: %s@." msg;
          0
        | CexM.Not_reproduced msg ->
          Format.printf "@.NOT reproduced: %s@." msg;
          1
        | CexM.Invalid msg ->
          Format.printf "@.invalid trace: %s@." msg;
          2)
    with Invalid_argument msg -> Error msg
  in
  exit (or_die res)

let replay_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"Counterexample file written by `ccsim check'.")

let replay_term = Term.(const replay_cmd $ replay_file_arg)

(* ---- stats (offline trace aggregation) ---- *)

let stats_cmd validate file =
  if file <> "-" && not (Sys.file_exists file) then
    or_die (Error (Printf.sprintf "no such file %S" file));
  if validate then begin
    (* strict whole-file JSON parse — the CI gate for BENCH_*.json and the
       other machine-readable artifacts *)
    let content = String.concat "\n" (read_lines file) in
    match Tele.Json.of_string content with
    | Ok _ -> Format.printf "%s: valid JSON@." file
    | Error msg ->
      Format.eprintf "ccsim: %s: %s@." file msg;
      exit 1
  end
  else begin
    match Tele.Stats.of_jsonl (read_lines file) with
    | Ok (meta, summary) ->
      print_string (Tele.Json.to_string (Tele.Stats.to_json ?meta summary));
      print_newline ()
    | Error msg ->
      Format.eprintf "ccsim: %s: %s@." file msg;
      exit 1
  end

let stats_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"JSONL trace written by `ccsim run --emit-trace' (or, with \
               --validate-json, any JSON file).  `-' reads standard input.")

let stats_validate_arg =
  Arg.(value & flag & info [ "validate-json" ]
         ~doc:"Only check that $(i,FILE) parses as JSON (whole-file, not \
               JSONL); exit 1 otherwise.")

let stats_term = Term.(const stats_cmd $ stats_validate_arg $ stats_file_arg)

(* ---- trace (offline causal analysis) ---- *)

module Causal = Snapcc_analysis.Causal

let trace_cmd file emit_json =
  let lines =
    match read_lines file with
    | lines -> lines
    | exception Sys_error msg ->
      Format.eprintf "ccsim: %s@." msg;
      exit 2
  in
  match Tele.Stats.events_of_jsonl lines with
  | Error msg ->
    Format.eprintf "ccsim: %s: %s@." file msg;
    exit 2
  | Ok events -> (
    match Causal.analyze events with
    | Error msg ->
      Format.eprintf "ccsim: %s: %s@." file msg;
      exit 2
    | Ok t ->
      let par = Causal.parity t events in
      (match emit_json with
       | Some out ->
         write_json out
           (Tele.Json.Obj
              [ ("causal", Causal.to_json t);
                ("parity", Causal.parity_to_json par) ])
       | None -> ());
      Format.printf "%a@." Causal.pp t;
      Format.printf "%a@." Causal.pp_parity par;
      if not (Causal.parity_ok par) then exit 1)

let trace_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"JSONL trace with vector-clock stamps (`ccsim mp' or `ccsim \
               net' with --emit-trace).  `-' reads standard input.")

let trace_emit_json_arg =
  Arg.(value & opt (some string) None
       & info [ "emit-json" ] ~docv:"FILE"
           ~doc:"Also write the causal summary and the parity report as one \
                 JSON object to $(docv).")

let trace_term = Term.(const trace_cmd $ trace_file_arg $ trace_emit_json_arg)

(* ---- list ---- *)

let list_cmd () =
  Format.printf "named topologies:@.";
  List.iter
    (fun (name, h) -> Format.printf "  %-10s %a@." name H.pp h)
    (Families.all_named ());
  Format.printf "  (plus ring<n>, path<n>, star<n>, clique<n>, single<k>, line<n>)@.@.";
  Format.printf "algorithms: cc1 cc2 cc3 token-only dining central cc1-no-token@.@.";
  Format.printf "check systems (ccsim check --algo, times --token vring|tree|null):@.";
  List.iter
    (fun (e : Mc_systems.entry) ->
      Format.printf "  %-14s %s%s@." e.Mc_systems.key e.Mc_systems.title
        (if e.Mc_systems.broken then "  [deliberately broken]" else ""))
    Mc_systems.all;
  Format.printf "@.experiments:@.";
  List.iter
    (fun (e : Registry.entry) -> Format.printf "  %-24s %s@." e.Registry.id e.Registry.title)
    Registry.all

let list_term = Term.(const list_cmd $ const ())

(* ---- main ---- *)

let cmds =
  [ Cmd.v
      (Cmd.info "run" ~doc:"Simulate a committee-coordination algorithm under monitors")
      run_term;
    Cmd.v (Cmd.info "bounds" ~doc:"Matching-theory bounds of a topology (Theorems 4-8)")
      bounds_term;
    Cmd.v
      (Cmd.info "mp"
         ~doc:"Simulate over the message-passing emulation (Section 7 future work)")
      mp_term;
    Cmd.v
      (Cmd.info "net"
         ~doc:"Run the algorithm as real node processes over fault-injecting \
               loopback links, with a live monitoring observer.  A zero-fault \
               run replays `ccsim mp' of the same seed decision for decision.")
      net_term;
    Cmd.v (Cmd.info "experiment" ~doc:"Run one of the paper's experiments") experiment_term;
    Cmd.v
      (Cmd.info "lint"
         ~doc:"Static footprint/race/priority analysis of the guarded-command \
               algorithms (exits non-zero on violations)")
      lint_term;
    Cmd.v
      (Cmd.info "check"
         ~doc:"Exhaustively model-check a system on a small topology: safety \
               closure from every initial configuration, plus \
               deadlock/livelock detection under weak fairness.  Exit codes: \
               0 verified (or incomplete without violation), 1 violation \
               found, 2 usage error.")
      check_term;
    Cmd.v
      (Cmd.info "smc"
         ~doc:"Statistical model checking: seeded Monte-Carlo trials from \
               corrupted starts drawn uniformly over the state-domain \
               product, estimating stabilization/waiting-time distributions \
               with Student-t and Wilson confidence intervals — or testing \
               a probabilistic claim sequentially (--sprt) with early \
               stopping.  Parallel (--workers) runs merge to byte-identical \
               reports.  Exit codes: 0 ok, 1 violation or rejected claim, 2 \
               usage error.")
      smc_term;
    Cmd.v
      (Cmd.info "orbits"
         ~doc:"Verify snapcc-orbits v1 symmetry certificates (written by \
               `ccsim lint --symmetry --orbits DIR'): structural checks on \
               generators, transports, orbits and group closure.  Exit \
               codes: 0 all valid, 1 any failure.")
      orbits_term;
    Cmd.v
      (Cmd.info "replay"
         ~doc:"Re-execute a counterexample written by `ccsim check' through \
               the simulation engine and runtime monitors.  Exit codes: 0 \
               reproduced, 1 not reproduced, 2 invalid file.")
      replay_term;
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Aggregate a JSONL telemetry trace back to a run summary \
               (identical to the `ccsim run --emit-json' artifact), or \
               validate any JSON artifact with --validate-json.")
      stats_term;
    Cmd.v
      (Cmd.info "trace"
         ~doc:"Rebuild a run from the vector-clock stamps of a JSONL trace \
               alone: happens-before linearization, consistent cuts, \
               cut-consistent Spec verdicts, causal vs schedule concurrency \
               and the burst-to-recovery critical path — cross-checked \
               against the online observer's events of the same trace.  \
               Exit codes: 0 parity, 1 parity mismatch, 2 unusable trace.")
      trace_term;
    Cmd.v (Cmd.info "list" ~doc:"List topologies, algorithms and experiments") list_term;
  ]

(* Hidden entry point: `ccsim node --id I --connect PORT` is what `ccsim
   net' spawns per paper process.  Intercepted before cmdliner so it never
   appears in the help surface. *)
let node_main () =
  let id = ref (-1) in
  let port = ref (-1) in
  let argc = Array.length Sys.argv in
  let rec parse i =
    if i + 1 < argc then begin
      (match Sys.argv.(i) with
       | "--id" -> id := int_of_string Sys.argv.(i + 1)
       | "--connect" -> port := int_of_string Sys.argv.(i + 1)
       | a -> or_die (Error (Printf.sprintf "node: unknown argument %S" a)));
      parse (i + 2)
    end
  in
  (match parse 2 with
   | () -> ()
   | exception Failure _ ->
     or_die (Error "node: --id and --connect take integers"));
  if !id < 0 || !port <= 0 then
    or_die (Error "node: --id ID and --connect PORT are required");
  let fd = Net.Spawn.connect ~port:!port in
  Net.Node.serve ~id:!id fd;
  exit 0

let () =
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = "node" then node_main ();
  let info =
    Cmd.info "ccsim" ~version:"1.0.0"
      ~doc:"Snap-stabilizing committee coordination simulator"
  in
  exit (Cmd.eval (Cmd.group info cmds))
