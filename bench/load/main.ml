(* The load benchmark of xqdb: four seeded workloads, one in process and
   three against a real [xqdb serve] over TCP, with correctness checks and
   every metric printed by name and unit. See README.md in this directory.

   main.exe [--workload W|all] [--seed N] [--seconds S] [--trace 0|1]
   main.exe compare DIR_A DIR_B
   main.exe smoke
   main.exe probe   (the host-speed child process, see host.ml) *)

let workloads = [ "xmark-snapshot"; "serve-hot"; "serve-cold"; "serve-mixed" ]

let end_to_end =
  [ ("setup_s", "s");
    ("read_p50_ms", "ms");
    ("read_p99_ms", "ms");
    ("write_p50_ms", "ms");
    ("geomean_ms", "ms");
    ("recover_s", "s") ]

(* Per-layer metrics, each measured on one workload and named after it. *)
let per_layer =
  let traced = [ ("trace.coverage", "ratio"); ("trace.overhead_frac", "ratio") ] in
  let reads =
    [ ("server.request_ms", "ms");
      ("server.outside_ms", "ms");
      ("qcache.hit_ratio", "ratio");
      ("self.protocol.parse_us", "us");
      ("self.db.read_txn_us", "us");
      ("self.db.query_us", "us");
      ("self.xpath.parse_us", "us");
      ("self.engine.eval_us", "us");
      ("self.engine.step_us", "us");
      ("self.render.serialize_us", "us");
      ("self.protocol.render_us", "us") ]
    @ traced
  in
  let on w l = List.map (fun (m, u) -> (w ^ "." ^ m, u)) l in
  on "xmark-snapshot"
    ([ ("storage.up_over_ro", "ratio");
       ("storage.view_over_up", "ratio");
       ("setup.shred_s", "s");
       ("setup.checkpoint_s", "s");
       ("self.db.read_us", "us");
       ("self.xmark.query_us", "us") ]
    @ traced
    @ List.init 20 (fun i -> (Printf.sprintf "xmark.q%02d_ms" (i + 1), "ms")))
  @ on "serve-hot"
      (reads
      @ [ ("server.bytes_out_per_req", "bytes");
          ("render.us_per_read", "us");
          ("render.bytes_per_read", "bytes") ])
  @ on "serve-cold"
      (reads
      @ [ ("qcache.plan_hit_ratio", "ratio");
          ("qcache.evictions_per_req", "count");
          ("xpath.parse_us", "us");
          ("engine.eval_ms", "ms");
          ("engine.steps_per_query", "count");
          ("engine.scanned_per_item", "count") ])
  @ on "serve-mixed"
      (reads
      @ [ ("qcache.singleflight_waits", "count");
          ("xupdate.parse_ms", "ms");
          ("xupdate.apply_ms", "ms");
          ("schema_up.page_overflows_per_commit", "count");
          ("pagemap.shifted_pages_per_commit", "count");
          ("txn.commit_ms", "ms");
          ("txn.conflicts_per_commit", "count");
          ("lock.wait_ms_per_commit", "ms");
          ("lock.deadlock_timeouts", "count");
          ("client.retries_per_write", "count");
          ("mvcc.commit_cs_ms", "ms");
          ("mvcc.captured_pages_per_commit", "count");
          ("wal.flush_ms", "ms");
          ("wal.bytes_per_commit", "bytes");
          ("wal.bytes_per_user_byte", "ratio");
          ("self.xupdate.parse_us", "us");
          ("self.db.write_txn_us", "us");
          ("self.xupdate.apply_us", "us") ])

(* ------------------------------------------------------------- running -- *)

(* One run of workload [w]; with [~traced:true], the short run of the
   traced run, followed by the in-process replays. *)
let run_workload ?(traced = false) env w ~seconds =
  let replay f = if traced then Some (f env) else None in
  let serve wl = Serve.run ?replay:(replay Trace.serve) env wl ~seconds in
  match w with
  | "serve-hot" -> serve Serve.Hot
  | "serve-cold" -> serve Serve.Cold
  | "serve-mixed" -> serve Serve.Mixed
  | _ -> Snapshot.run ?replay:(replay Trace.xmark) env ~seconds

(* Run [f] on workload [w]'s environment: a fresh scratch directory in the
   working directory, removed afterwards (and beforehand, if a killed run
   left it), and a host probe, stopped afterwards. The serve workloads
   start their servers, and probe the host, on CPU [cpu] when it is given;
   xmark-snapshot runs in this process and probes the CPU it runs on. *)
let with_env ~xqdb ~scale ~seed ~cpu w f =
  let dir = ".bench_load" in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun x -> rm (Filename.concat path x)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Sys.mkdir dir 0o755;
  let cpu = if String.starts_with ~prefix:"serve-" w then cpu else None in
  let host = Host.start ?cpu () in
  Fun.protect
    ~finally:(fun () ->
      Host.stop host;
      rm dir)
    (fun () ->
      let o : Check.outcome = f { Serve.xqdb; dir; scale; seed; host; cpu } in
      { o with notes = o.notes @ [ Host.summary host ] })

let pick catalog prefix measured =
  List.map
    (fun (name, unit) ->
      let key =
        String.sub name (String.length prefix) (String.length name - String.length prefix)
      in
      (name, unit, Option.value ~default:Float.nan (List.assoc_opt key measured)))
    (List.filter (fun (n, _) -> String.starts_with ~prefix n) catalog)

type result = {
  metrics : (string * string * float) list;
  attempted : int;
  failed : int;
  problems : string list;
  notes : string list;
}

let add r (o : Check.outcome) metrics =
  { metrics = r.metrics @ metrics;
    attempted = r.attempted + o.attempted;
    failed = r.failed + o.failed;
    problems = r.problems @ o.problems;
    notes = r.notes @ o.notes }

let empty = { metrics = []; attempted = 0; failed = 0; problems = []; notes = [] }

(* End-to-end metrics of the named workloads, untraced. With several
   workloads the names carry the workload as a prefix. *)
let untraced ~cpu ~xqdb ~scale ~seed ~seconds ws =
  List.fold_left
    (fun r w ->
      let o = with_env ~xqdb ~scale ~seed ~cpu w (fun env -> run_workload env w ~seconds) in
      let prefix = if List.length ws > 1 then w ^ "." else "" in
      add r o
        (List.map
           (fun (n, u) ->
             (prefix ^ n, u, Option.value ~default:Float.nan (List.assoc_opt n o.e2e)))
           end_to_end))
    empty ws

(* The traced run covers every workload, whatever [--workload] names, so
   any two traced runs report the same per-layer metrics: each workload
   runs untraced for a short window (server instruments, reference
   timings) and is then replayed in process with spans. *)
let traced ~cpu ~xqdb ~scale ~seed ~seconds =
  let r =
    List.fold_left
      (fun r w ->
        let o =
          with_env ~xqdb ~scale ~seed ~cpu w (fun env ->
              run_workload ~traced:true env w ~seconds:(Float.min seconds 3.))
        in
        add r o (pick per_layer (w ^ ".") o.layers))
      empty workloads
  in
  Trace.write_file "BENCH_load_trace.json";
  { r with notes = r.notes @ [ "spans written to BENCH_load_trace.json" ] }

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let report r =
  List.iter (fun (n, u, v) -> Printf.printf "%-56s %16.6g %s\n" n v u) r.metrics;
  List.iter (Printf.printf "note: %s\n") r.notes;
  List.iter (Printf.printf "INCORRECT: %s\n") r.problems;
  Printf.printf "attempted %d, failed %d (error_frac %.6g)\n" r.attempted r.failed
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.problems = []) (max 1 r.attempted) r.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (number v) u)
          r.metrics))

(* ---------------------------------------------------------------- smoke -- *)

(* Every metric BENCHMARK.json names is emitted, finite, with the unit
   given there, and every correctness check passes, on a small document. *)
let smoke ~benchmark ~xqdb =
  let j = Json.parse (Inputs.read_file benchmark) in
  let declared key =
    List.map
      (fun m -> (Json.str (Json.field "name" m), Json.str (Json.field "unit" m)))
      (Json.list (Json.field key j))
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let check what want r =
    List.iter (fun p -> fail "%s: %s" what p) r.problems;
    List.iter
      (fun (n, u) ->
        match List.find_opt (fun (n', _, _) -> n' = n) r.metrics with
        | None -> fail "%s: %s not emitted" what n
        | Some (_, u', v) ->
          if u <> u' then fail "%s: %s in %s, BENCHMARK.json says %s" what n u' u;
          if not (Float.is_finite v) then fail "%s: %s = %g" what n v)
      want
  in
  let scale = 0.002 and seed = 7 and seconds = 1. in
  List.iter
    (fun w ->
      check w (declared "end_to_end")
        (untraced ~cpu:None ~xqdb ~scale ~seed ~seconds [ w ]))
    workloads;
  check "traced run" (declared "per_layer") (traced ~cpu:None ~xqdb ~scale ~seed ~seconds);
  if not (Sys.file_exists "BENCH_load_trace.json") then fail "no BENCH_load_trace.json";
  List.iter (Printf.printf "smoke: %s\n") (List.rev !failures);
  if !failures = [] then (print_endline "smoke: ok"; 0) else 1

(* ----------------------------------------------------------------- main -- *)

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let xqdb = ref "_build/default/bin/xqdb.exe" and benchmark = ref "BENCHMARK.json" in
  let cpu = ref None in
  let anon = ref [] in
  let spec =
    [ ("--workload", Arg.Set_string workload, "W  one of the workloads, or all (default)");
      ("--seed", Arg.Set_int seed, "N  seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S  measured window per workload (default 30)");
      ("--trace", Arg.Set_int trace, "0|1  1: the traced run, which reports per-layer metrics");
      ("--xqdb", Arg.Set_string xqdb, "PATH  the xqdb executable under test");
      ( "--server-cpu",
        Arg.Int (fun c -> cpu := Some c),
        "N  run the servers, and the host probe of a serve workload, on CPU N" );
      ("--benchmark", Arg.Set_string benchmark, "FILE  metric declarations (compare, smoke)") ]
  in
  Arg.parse spec (fun a -> anon := !anon @ [ a ]) "main.exe [compare DIR_A DIR_B | smoke] [options]";
  let code =
    try
      match !anon with
      | [ "compare"; a; b ] -> Stats.compare_dirs ~benchmark:!benchmark a b
      | [ "probe" ] ->
        Host.serve ();
        0
      | [ "smoke" ] -> smoke ~benchmark:!benchmark ~xqdb:!xqdb
      | [] ->
        if not (Sys.file_exists !xqdb) then failwith (!xqdb ^ " not found; run dune build first");
        let ws = if !workload = "all" then workloads else [ !workload ] in
        if not (List.for_all (fun w -> List.mem w workloads) ws) then
          failwith ("unknown workload " ^ !workload);
        let scale = 0.05 and seed = !seed and seconds = !seconds and xqdb = !xqdb in
        let cpu = !cpu in
        let r =
          if !trace = 1 then traced ~cpu ~xqdb ~scale ~seed ~seconds
          else untraced ~cpu ~xqdb ~scale ~seed ~seconds ws
        in
        report r;
        if r.problems = [] then 0 else 1
      | _ -> failwith "usage: main.exe [compare DIR_A DIR_B | smoke] [options]"
    with e ->
      Printf.eprintf "load benchmark: %s\n" (Printexc.to_string e);
      2
  in
  exit code
