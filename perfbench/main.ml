(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (see BENCHMARK.json for the list and why each was
   chosen).  With --trace 0 it measures for S seconds with no tracing and
   reports the end-to-end metrics; with --trace 1 it runs the workload
   both untraced and traced, about S seconds in all, reports the
   per-layer metrics (including the tracing overhead) and writes the
   traced spans to perfbench/out/.  The metric names and units are read
   from BENCHMARK.json in the working directory, so the file and the
   program cannot drift apart.

   Standard output: one line per metric and correctness gate, then, as the
   last line, one JSON object
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Per-layer metrics that the workload does not exercise read 0 there and
   are listed as "not exercised" in the lines above it.  Exit code 0 also
   when a gate fails (the result line says so); 2 on bad arguments or a
   missing BENCHMARK.json. *)

module Json = Snapcc_telemetry.Json

type workload = {
  name : string;
  measure : seed:int -> seconds:float -> Common.report;
  traced : seed:int -> seconds:float -> Span.t -> Common.report;
}

let workloads =
  [ { name = "run-ring24"; measure = Wl_run.measure; traced = Wl_run.traced };
    { name = "smc-triangle3"; measure = Wl_smc.measure; traced = Wl_smc.traced };
    { name = "check-triangle3"; measure = Wl_check.measure; traced = Wl_check.traced };
    { name = "mp-ring9"; measure = Wl_mp.measure; traced = Wl_mp.traced } ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* (name, unit) of every metric of one BENCHMARK.json section. *)
let declared section =
  let read () =
    let ic = open_in_bin "BENCHMARK.json" in
    Fun.protect ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let text = try read () with Sys_error e -> die "cannot read BENCHMARK.json: %s" e in
  let field k j = Option.bind (Json.member k j) (function Json.String s -> Some s | _ -> None) in
  match Json.of_string text with
  | Error e -> die "BENCHMARK.json: %s" e
  | Ok j ->
    (match Json.member section j with
     | Some (Json.List ms) ->
       List.map
         (fun m ->
           match (field "name" m, field "unit" m) with
           | Some n, Some u -> (n, u)
           | _ -> die "BENCHMARK.json: malformed %s entry" section)
         ms
     | _ -> die "BENCHMARK.json: no %s list" section)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (non-negative)");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) "main.exe [options]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      die "unknown workload %S (one of %s)" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads))
  in
  if !seed < 0 then die "--seed must be a non-negative integer";
  if not (!seconds > 0.) then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let section = if !trace = 0 then "end_to_end" else "per_layer" in
  let metrics_decl = declared section in
  let r =
    if !trace = 0 then w.measure ~seed:!seed ~seconds:!seconds
    else begin
      let sp = Span.create () in
      let r = w.traced ~seed:!seed ~seconds:!seconds sp in
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      let file = Printf.sprintf "perfbench/out/%s-seed%d.trace.json" w.name !seed in
      Span.write_catapult sp file;
      let note =
        Printf.sprintf "%d recorded, first %d written to %s" (Span.total_spans sp)
          (Span.recorded sp) file
      in
      { r with Common.notes = r.Common.notes @ [ ("spans", note) ] }
    end
  in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n metrics_decl) then
        die "workload %s reports %s, which BENCHMARK.json does not declare" w.name n)
    r.Common.metrics;
  let r =
    { r with
      Common.gates =
        r.Common.gates
        @ [ ("every metric is a finite number",
             List.for_all (fun (_, v) -> Float.is_finite v) r.Common.metrics) ] }
  in
  let correct = List.for_all snd r.Common.gates && r.Common.failed = 0 in
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" w.name !seed !seconds !trace;
  List.iter (fun (k, v) -> Printf.printf "  %-22s %s\n" k v) r.Common.notes;
  let absent = List.filter (fun (n, _) -> not (List.mem_assoc n r.Common.metrics)) metrics_decl in
  (match absent with
   | (n, _) :: _ when !trace = 0 -> die "workload %s does not report %s" w.name n
   | [] -> ()
   | _ ->
     Printf.printf "  not exercised by this workload: %s\n"
       (String.concat "," (List.map fst absent)));
  List.iter
    (fun (n, u) ->
      match List.assoc_opt n r.Common.metrics with
      | Some v -> Printf.printf "  %-32s %14.6g %s\n" n v u
      | None -> ())
    metrics_decl;
  List.iter
    (fun (g, ok) -> Printf.printf "  gate %-56s %s\n" g (if ok then "ok" else "FAILED"))
    r.Common.gates;
  Printf.printf "  error_rate %g (%d failed of %d attempted)\n"
    (float r.Common.failed /. float r.Common.attempted) r.Common.failed r.Common.attempted;
  let metric (n, u) =
    let v = Option.value (List.assoc_opt n r.Common.metrics) ~default:0. in
    (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int r.Common.attempted);
            ("failed", Json.Int r.Common.failed);
            ("metrics", Json.Obj (List.map metric metrics_decl)) ]))
