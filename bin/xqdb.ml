(* xqdb — command-line front end to the updatable pre/post-plane XML store.

   Subcommands: query, explain, profile, xquery, update, stats, xmark,
   metrics, checkpoint, recover, import, ls, concurrent, torture.

   Built on the result API (Db.query / Db.update / Db.open_recovered and
   Db.Session): every expected failure arrives as a Db.Error.t, so error
   handling is one match per subcommand instead of a catch per exception. *)

open Cmdliner

let report_error e =
  Printf.eprintf "%s\n" (Core.Db.Error.to_string e);
  1

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Malformed XML input is an expected user error, not a crash: report
   file:line:col and exit 1 (matching the XPath/XUpdate error handling). *)
exception Parse_failed

let parse_xml_file ~what path parse =
  match parse (read_file path) with
  | v -> v
  | exception Xml.Xml_parser.Parse_error { line; col; msg } ->
    Printf.eprintf "%s parse error: %s:%d:%d: %s\n" what path line col msg;
    raise Parse_failed

let protect_parse f = try f () with Parse_failed -> 1

let load ?wal_path ?cache ~page_bits ~fill path =
  parse_xml_file ~what:"xml" path (fun src ->
      Core.Db.of_xml ~page_bits ~fill ?wal_path ?cache src)

(* common options *)
let page_bits =
  let doc = "Logical page size as a power of two (tuples per page)." in
  Arg.(value & opt int Core.Schema_up.default_page_bits & info [ "page-bits" ] ~doc)

let fill =
  let doc = "Shredder fill factor: fraction of each logical page used." in
  Arg.(value & opt float 0.8 & info [ "fill" ] ~doc)

let doc_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"XML-FILE")

(* --doc NAME flips the positional FILE from "XML text" to "catalog
   checkpoint": the store is opened with open_recovered (checkpoint + WAL)
   and the named document is addressed. Without it the historical
   single-document behaviour is untouched. *)
let doc_name_arg =
  Arg.(
    value & opt (some string) None
    & info [ "doc" ] ~docv:"NAME"
        ~doc:
          "Address the named document of a catalog. $(docv) makes the \
           positional file argument a catalog checkpoint (as written by \
           $(b,xqdb checkpoint) or $(b,xqdb import)) instead of an XML \
           document.")

let open_db ?wal_path ?cache ~page_bits ~fill ~doc path =
  match doc with
  | None -> Result.Ok (load ?wal_path ?cache ~page_bits ~fill path)
  | Some _ -> Core.Db.open_recovered ?wal_path ?cache ~checkpoint:path ()

(* ------------------------------------------------------------ query cache *)

let cache_flag =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Enable the epoch-keyed query/plan cache: results are reused while \
           the snapshot epoch is unchanged and invalidated for free by \
           commits. The $(b,XQDB_CACHE) environment variable \
           ($(b,force)/$(b,off)) overrides this process-wide.")

let cache_size_arg =
  Arg.(
    value & opt (some int) None
    & info [ "cache-size" ] ~docv:"N"
        ~doc:"Result-cache entry bound (implies $(b,--cache)).")

let cache_cfg enabled size =
  match enabled, size with
  | false, None -> None
  | _, Some n -> Some (Core.Db.cache_config ~entries:n ())
  | true, None -> Some Core.Db.default_cache

let render_cache_stats db =
  match Core.Db.cache_stats db with
  | None -> "cache: disabled\n"
  | Some st ->
    Printf.sprintf
      "cache: %d/%d entries, %d bytes (max %d), plans %d hit / %d miss\n\
       cache results: %d hit / %d miss, %d evicted, %d single-flight wait(s)\n"
      st.Core.Qcache.entries st.Core.Qcache.max_entries st.Core.Qcache.bytes
      st.Core.Qcache.max_bytes st.Core.Qcache.plan_hits
      st.Core.Qcache.plan_misses st.Core.Qcache.hits st.Core.Qcache.misses
      st.Core.Qcache.evictions st.Core.Qcache.singleflight_waits

(* ---------------------------------------------------------------- metrics *)

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Dump the metrics registry (as a table, to stderr) after the run.")

let dump_metrics enabled =
  if enabled then prerr_string (Obs.render_table (Obs.snapshot ()))

type metrics_format = Table | Prometheus | Json

let format_arg =
  let doc = "Output format: $(b,table), $(b,prometheus) or $(b,json)." in
  Arg.(
    value
    & opt (enum [ ("table", Table); ("prometheus", Prometheus); ("json", Json) ]) Table
    & info [ "format" ] ~doc)

let render_metrics = function
  | Table -> Obs.render_table (Obs.snapshot ())
  | Prometheus -> Obs.render_prometheus (Obs.snapshot ())
  | Json -> Obs.render_json (Obs.snapshot ())

(* ------------------------------------------------------------------ query *)

let domains_arg =
  let doc =
    "Evaluate queries with a pool of $(docv) domains (1 = sequential). Axis \
     steps are partitioned across the pool against the same pinned snapshot."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

(* Build a pool for --domains N (None when N = 1: no pool, pure sequential
   entry points) and run [f] with it, shutting the workers down after. *)
let with_domains n f =
  if n <= 1 then f None
  else Core.Par.with_pool ~domains:n (fun pool -> f (Some pool))

let query_cmd =
  let xpath = Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH") in
  let count_only =
    Arg.(value & flag & info [ "c"; "count" ] ~doc:"Print only the result count.")
  in
  let profile_flag =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Also collect a per-step profile and print the plan tree (with \
             timings) to stderr after the results.")
  in
  let run path xpath count_only profile page_bits fill domains doc cache
      cache_size metrics =
    protect_parse (fun () ->
        match open_db ?cache:(cache_cfg cache cache_size) ~page_bits ~fill ~doc path with
        | Error e -> report_error e
        | Result.Ok db ->
        let code =
          (* One session: the query and the serialisation of its results
             read the same pinned snapshot. *)
          match
            with_domains domains @@ fun par ->
            Result.join @@ Core.Db.read_txn ?par ?doc db (fun s ->
                let res =
                  if profile then
                    Result.map
                      (fun (items, p) -> (items, Some p))
                      (Core.Db.Session.query_profiled s xpath)
                  else
                    Result.map
                      (fun items -> (items, None))
                      (Core.Db.Session.query s xpath)
                in
                match res with
                | Error _ as e -> e
                | Ok (items, prof) ->
                  if count_only then Printf.printf "%d\n" (List.length items)
                  else
                    List.iter
                      (fun item ->
                        print_endline (Core.Db.Session.serialize_item s item))
                      items;
                  Option.iter
                    (fun p -> prerr_string (Core.Profile.render_explain p))
                    prof;
                  Ok ())
          with
          | Ok () -> 0
          | Error e -> report_error e
        in
        dump_metrics metrics;
        code)
  in
  let info = Cmd.info "query" ~doc:"Evaluate an XPath expression over a document." in
  Cmd.v info
    Term.(
      const run $ doc_arg $ xpath $ count_only $ profile_flag $ page_bits $ fill
      $ domains_arg $ doc_name_arg $ cache_flag $ cache_size_arg $ metrics_flag)

(* -------------------------------------------------------- explain/profile *)

let xpath_pos1 = Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH")

let explain_cmd =
  let run path xpath page_bits fill domains =
    protect_parse (fun () ->
        let db = load ~page_bits ~fill path in
        match
          with_domains domains @@ fun par -> Core.Db.query_profiled ?par db xpath
        with
        | Ok (_, p) ->
          print_string (Core.Profile.render_explain ~timings:false p);
          0
        | Error e -> report_error e)
  in
  let info =
    Cmd.info "explain"
      ~doc:
        "Show the evaluation plan of an XPath: per step the chosen plan \
         ($(b,seq)/$(b,range)/$(b,ctx)), partition count, context size, slots \
         scanned and items produced. Timings are omitted, so the output is \
         deterministic for a fixed document."
  in
  Cmd.v info Term.(const run $ doc_arg $ xpath_pos1 $ page_bits $ fill $ domains_arg)

let profile_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the profile as one JSON object instead of a tree.")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Also write the query's span trace as Chrome trace_event JSON \
             (open in chrome://tracing or Perfetto).")
  in
  let run path xpath page_bits fill domains json trace_out =
    protect_parse (fun () ->
        let db = load ~page_bits ~fill path in
        match
          with_domains domains @@ fun par -> Core.Db.query_profiled ?par db xpath
        with
        | Error e -> report_error e
        | Ok (_, p) ->
          if json then print_endline (Core.Profile.render_json p)
          else print_string (Core.Profile.render_explain p);
          (match trace_out with
          | None -> ()
          | Some f ->
            write_file f (Core.Profile.render_chrome p);
            Printf.eprintf "wrote Chrome trace to %s\n" f);
          0)
  in
  let info =
    Cmd.info "profile"
      ~doc:
        "Evaluate an XPath and print its profile: the plan tree with per-step \
         timings and cardinalities, optionally as JSON or a Chrome trace."
  in
  Cmd.v info
    Term.(
      const run $ doc_arg $ xpath_pos1 $ page_bits $ fill $ domains_arg
      $ json_flag $ trace_out)

(* ----------------------------------------------------------------- xquery *)

let xquery_cmd =
  let query = Arg.(required & pos 1 (some string) None & info [] ~docv:"XQUERY") in
  let run path query page_bits fill metrics =
    protect_parse (fun () ->
        let db = load ~page_bits ~fill path in
        let module Xq = Xquery.Xq_eval.Make (Core.View) in
        let code =
          match Core.Db.read db (fun v -> Xq.run_string v query) with
          | out ->
            print_endline out;
            0
          | exception Xquery.Xq_parser.Syntax_error { pos; msg } ->
            Printf.eprintf "xquery syntax error at offset %d: %s\n" pos msg;
            1
          | exception Xq.Error msg ->
            Printf.eprintf "xquery error: %s\n" msg;
            1
        in
        dump_metrics metrics;
        code)
  in
  let info =
    Cmd.info "xquery" ~doc:"Evaluate an XQuery (FLWOR subset) over a document."
  in
  Cmd.v info Term.(const run $ doc_arg $ query $ page_bits $ fill $ metrics_flag)

(* ----------------------------------------------------------------- update *)

let update_cmd =
  let xupdate =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"XUPDATE-FILE")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
           ~doc:"Write the updated document here (default: stdout).")
  in
  let wal =
    Arg.(
      value & opt (some string) None
      & info [ "wal" ] ~docv:"WAL"
          ~doc:"Append commit records to this write-ahead log file.")
  in
  let run path xupdate output wal doc page_bits fill metrics =
    protect_parse (fun () ->
        match open_db ?wal_path:wal ~page_bits ~fill ~doc path with
        | Error e -> report_error e
        | Result.Ok db ->
        let code =
          let src =
            parse_xml_file ~what:"xupdate" xupdate (fun src ->
                (* parse eagerly so malformed XUpdate XML reports
                   file:line:col like any other input file *)
                ignore (Xml.Xml_parser.parse src);
                src)
          in
          match Core.Db.update ?doc db src with
          | Ok n ->
            Printf.eprintf "%d target(s) updated\n" n;
            (* catalog mode: make the update durable in the checkpoint the
               document came from (with the WAL truncated, the checkpoint
               alone carries the new state) *)
            if doc <> None then Core.Db.checkpoint ~truncate_wal:true db path;
            let xml = Core.Db.to_xml ?doc db in
            (match output with None -> print_endline xml | Some out -> write_file out xml);
            0
          | Error e -> report_error e
        in
        Core.Db.close db;
        dump_metrics metrics;
        code)
  in
  let info = Cmd.info "update" ~doc:"Apply an XUpdate document transactionally." in
  Cmd.v info
    Term.(
      const run $ doc_arg $ xupdate $ output $ wal $ doc_name_arg $ page_bits
      $ fill $ metrics_flag)

(* ------------------------------------------------------------------ stats *)

let stats_cmd =
  let run path page_bits fill =
    protect_parse @@ fun () ->
    let d = parse_xml_file ~what:"xml" path (Xml.Xml_parser.parse ~strip_ws:true) in
    let ro = Core.Schema_ro.of_dom d in
    let up = Core.Schema_up.of_dom ~page_bits ~fill d in
    let sro = Core.Schema_ro.stats ro and sup = Core.Schema_up.stats up in
    Printf.printf "%-24s %12s %12s\n" "" "read-only" "updateable";
    let row name a b = Printf.printf "%-24s %12d %12d\n" name a b in
    let open Core.Storage_intf in
    row "nodes" sro.nodes sup.nodes;
    row "slots" sro.slots sup.slots;
    row "attributes" sro.attrs sup.attrs;
    row "distinct qnames" sro.distinct_qnames sup.distinct_qnames;
    row "approx bytes" sro.approx_bytes sup.approx_bytes;
    Printf.printf "%-24s %12s %11.1f%%\n" "storage overhead" ""
      (100.0 *. (float_of_int sup.approx_bytes /. float_of_int sro.approx_bytes -. 1.0));
    Printf.printf "%-24s %12s %12d\n" "logical pages" "" (Core.Schema_up.npages up);
    0
  in
  let info = Cmd.info "stats" ~doc:"Compare storage footprints of both schemas." in
  Cmd.v info Term.(const run $ doc_arg $ page_bits $ fill)

(* ------------------------------------------------------------------ xmark *)

let xmark_cmd =
  let scale =
    Arg.(value & opt float 0.01 & info [ "s"; "scale" ] ~doc:"XMark scale factor.")
  in
  let seed = Arg.(value & opt int 20050401 & info [ "seed" ] ~doc:"PRNG seed.") in
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
           ~doc:"Output XML file.")
  in
  let run scale seed output metrics =
    let d = Xmark.Gen.of_scale ~seed scale in
    write_file output (Xml.Xml_serialize.to_string ~decl:true d);
    Printf.eprintf "wrote %s: %d nodes\n" output (Xml.Dom.node_count d);
    dump_metrics metrics;
    0
  in
  let info = Cmd.info "xmark" ~doc:"Generate an XMark-style auction document." in
  Cmd.v info Term.(const run $ scale $ seed $ output $ metrics_flag)

(* ---------------------------------------------------------------- metrics *)

(* Load a document (with a throwaway WAL so wal.* instruments see real
   traffic), run an optional workload, and expose the registry in the chosen
   exposition format. *)
let metrics_cmd =
  let queries =
    Arg.(
      value & opt_all string []
      & info [ "q"; "query" ] ~docv:"XPATH"
          ~doc:"Evaluate this XPath (repeatable); result counts go to stderr.")
  in
  let updates =
    Arg.(
      value & opt_all file []
      & info [ "u"; "update" ] ~docv:"XUPDATE-FILE"
          ~doc:"Apply this XUpdate document (repeatable).")
  in
  let traces =
    Arg.(
      value & flag
      & info [ "traces" ]
          ~doc:"Also print the recorded span traces of the run (table format).")
  in
  let cache_stats_flag =
    Arg.(
      value & flag
      & info [ "cache-stats" ]
          ~doc:
            "Also print the query cache's own counters (hits, misses, \
             evictions, bytes, single-flight waits) after the registry. \
             Implies $(b,--cache).")
  in
  let run path queries updates format traces cache cache_size cache_stats
      page_bits fill =
    protect_parse (fun () ->
        let wal_path = Filename.temp_file "xqdb_metrics" ".wal" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove wal_path with Sys_error _ -> ())
          (fun () ->
            let db =
              load
                ?cache:(cache_cfg (cache || cache_stats) cache_size)
                ~wal_path ~page_bits ~fill path
            in
            let code = ref 0 in
            List.iter
              (fun q ->
                match Core.Db.query db q with
                | Ok items -> Printf.eprintf "query %s: %d item(s)\n" q (List.length items)
                | Error e -> code := report_error e)
              queries;
            List.iter
              (fun u ->
                match Core.Db.update db (read_file u) with
                | Ok n -> Printf.eprintf "update %s: %d target(s)\n" u n
                | Error e -> code := report_error e)
              updates;
            Core.Db.close db;
            print_string (render_metrics format);
            if cache_stats then print_string (render_cache_stats db);
            if traces then begin
              match Obs.Span.recent () with
              | [] -> ()
              | ts ->
                print_newline ();
                print_endline "recent traces (newest first):";
                List.iter (fun t -> print_string (Obs.Span.render t)) ts
            end;
            !code))
  in
  let info =
    Cmd.info "metrics"
      ~doc:
        "Shred a document, run an optional query/update workload, and print \
         the full metrics registry (table, Prometheus or JSON)."
  in
  Cmd.v info
    Term.(
      const run $ doc_arg $ queries $ updates $ format_arg $ traces $ cache_flag
      $ cache_size_arg $ cache_stats_flag $ page_bits $ fill)

(* ------------------------------------------------------ checkpoint/recover *)

let checkpoint_cmd =
  let out = Arg.(required & pos 1 (some string) None & info [] ~docv:"CHECKPOINT") in
  let run path out page_bits fill =
    protect_parse @@ fun () ->
    let db = load ~page_bits ~fill path in
    Core.Db.checkpoint db out;
    Printf.eprintf "checkpointed %s to %s\n" path out;
    0
  in
  let info = Cmd.info "checkpoint" ~doc:"Shred a document and write a checkpoint file." in
  Cmd.v info Term.(const run $ doc_arg $ out $ page_bits $ fill)

let recover_cmd =
  let ck = Arg.(required & pos 0 (some file) None & info [] ~docv:"CHECKPOINT") in
  let wal =
    Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"WAL"
           ~doc:"WAL file (default: CHECKPOINT.wal).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
           ~doc:"Write the recovered document here instead of stdout.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ]
           ~doc:"Do not print the recovered document (summary still goes to stderr).")
  in
  let run ck wal output quiet doc =
    match Core.Db.open_recovered ?wal_path:wal ~checkpoint:ck () with
    | Error e -> report_error e
    | Ok db ->
      let names = Core.Db.list_docs db in
      List.iter
        (fun nm ->
          let st = Core.Db.store ~doc:nm db in
          match Core.Schema_up.check_integrity st with
          | Ok () -> Printf.eprintf "recovered %S: %d live nodes, integrity OK\n"
                       nm (Core.Schema_up.node_count st)
          | Error m -> Printf.eprintf "recovered %S but integrity FAILED: %s\n" nm m)
        names;
      (* which document to serialize: --doc, else the default document,
         else a sole document; a multi-doc catalog needs an explicit pick *)
      let to_print =
        match doc with
        | Some nm when List.mem nm names -> Result.Ok nm
        | Some nm -> Error (Printf.sprintf "no document %S (catalog: %s)"
                              nm (String.concat ", " names))
        | None when List.mem Core.Db.default_doc names ->
          Result.Ok Core.Db.default_doc
        | None -> (
          match names with
          | [ only ] -> Result.Ok only
          | _ ->
            Error (Printf.sprintf
                     "several documents recovered (%s): pick one with --doc"
                     (String.concat ", " names)))
      in
      (match to_print, output, quiet with
      | _, None, true -> 0
      | Result.Ok nm, Some out, _ ->
        write_file out (Core.Db.to_xml ~doc:nm db);
        0
      | Result.Ok nm, None, false ->
        print_endline (Core.Db.to_xml ~doc:nm db);
        0
      | Error m, _, _ ->
        prerr_endline m;
        2)
  in
  let info =
    Cmd.info "recover"
      ~doc:"Recover a store from checkpoint + WAL; print or save the document."
  in
  Cmd.v info Term.(const run $ ck $ wal $ output $ quiet $ doc_name_arg)

(* -------------------------------------------------------------- import/ls *)

(* Grow a catalog checkpoint one document at a time: open it if it exists
   (recovering through its WAL), otherwise start an empty catalog; shred the
   XML file under the given name; checkpoint back with the WAL truncated so
   the file on disk is self-contained. *)
let import_cmd =
  let ck = Arg.(required & pos 0 (some string) None & info [] ~docv:"CHECKPOINT") in
  let new_name = Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME") in
  let xml = Arg.(required & pos 2 (some file) None & info [] ~docv:"XML-FILE") in
  let run ck name xml page_bits fill =
    protect_parse @@ fun () ->
    let opened =
      if Sys.file_exists ck then Core.Db.open_recovered ~checkpoint:ck ()
      else Result.Ok (Core.Db.empty ~wal_path:(ck ^ ".wal") ())
    in
    match opened with
    | Error e -> report_error e
    | Result.Ok db -> (
      let src = parse_xml_file ~what:"xml" xml (fun s -> s) in
      match Core.Db.create_doc_xml ~page_bits ~fill db name src with
      | Error e ->
        Core.Db.close db;
        report_error e
      | Result.Ok () ->
        Core.Db.checkpoint ~truncate_wal:true db ck;
        Core.Db.close db;
        Printf.eprintf "imported %s as %S: catalog now [%s]\n" xml name
          (String.concat "; " (Core.Db.list_docs db));
        0)
  in
  let info =
    Cmd.info "import"
      ~doc:
        "Add an XML file to a catalog checkpoint as a named document \
         (creating the checkpoint when it does not exist yet); address it \
         later with $(b,--doc) or the server's $(b,DOC) verb."
  in
  Cmd.v info Term.(const run $ ck $ new_name $ xml $ page_bits $ fill)

let ls_cmd =
  let ck = Arg.(required & pos 0 (some file) None & info [] ~docv:"CHECKPOINT") in
  let run ck =
    match Core.Db.open_recovered ~checkpoint:ck () with
    | Error e -> report_error e
    | Result.Ok db ->
      List.iter print_endline (Core.Db.list_docs db);
      Core.Db.close db;
      0
  in
  let info =
    Cmd.info "ls" ~doc:"List the document names of a catalog checkpoint."
  in
  Cmd.v info Term.(const run $ ck)

(* ------------------------------------------------------------- concurrent *)

(* Readers-vs-writer stress: N domains run XPath scans against pinned
   snapshots while M systhreads commit XUpdate insert/delete pairs. Run once
   with zero readers for the baseline commit rate, then with the requested
   readers — under the retired global read lock the second phase collapsed;
   with MVCC the two rates should be comparable. *)
let concurrent_cmd =
  let readers =
    Arg.(value & opt int 4 & info [ "readers" ] ~doc:"Reader domains in phase 2.")
  in
  let writers =
    Arg.(value & opt int 1 & info [ "writers" ] ~doc:"Writer threads in both phases.")
  in
  let duration =
    Arg.(value & opt float 2.0 & info [ "duration" ] ~doc:"Seconds per phase.")
  in
  let query =
    Arg.(
      value & opt string "/*/*"
      & info [ "q"; "query" ] ~doc:"XPath each reader evaluates in a loop.")
  in
  let think =
    Arg.(
      value & opt float 0.05
      & info [ "think" ]
          ~doc:
            "Pause (seconds) between reader queries. Keeps reader domains \
             from saturating the CPU, so the reported slowdown measures lock \
             interference rather than core timesharing (set 0 for a raw \
             CPU-bound stress).")
  in
  let par_domains =
    Arg.(
      value & opt int 1
      & info [ "par-domains" ]
          ~docv:"N"
          ~doc:
            "Mixed mode: readers alternate sequential queries with \
             domain-parallel ones on a shared $(docv)-domain pool, so \
             parallel evaluation is stressed against concurrent commits and \
             other parallel readers.")
  in
  let slow_log =
    Arg.(
      value & opt (some float) None
      & info [ "slow-log" ] ~docv:"MS"
          ~doc:
            "Arm the slow-query log: record a full profile for every query \
             slower than $(docv) milliseconds and print the slowest after the \
             run.")
  in
  let stress db ~par ~readers ~writers ~duration ~query ~think =
    let stop = Atomic.make false in
    let reads = Atomic.make 0
    and commits = Atomic.make 0
    and aborts = Atomic.make 0
    and read_errors = Atomic.make 0 in
    let reader () =
      let i = ref 0 in
      while not (Atomic.get stop) do
        let par = if !i land 1 = 1 then par else None in
        incr i;
        (match Core.Db.query ?par db query with
        | Ok _ -> Atomic.incr reads
        | Error _ -> Atomic.incr read_errors);
        if think > 0.0 then Unix.sleepf think
      done
    in
    let writer i =
      let tag = Printf.sprintf "stress%d" i in
      let add =
        Printf.sprintf
          {|<xupdate:modifications><xupdate:append select="/*"><%s/></xupdate:append></xupdate:modifications>|}
          tag
      in
      let del =
        Printf.sprintf
          {|<xupdate:modifications><xupdate:remove select="/*/%s[1]"/></xupdate:modifications>|}
          tag
      in
      let adding = ref true in
      while not (Atomic.get stop) do
        match Core.Db.update db (if !adding then add else del) with
        | Ok _ ->
          Atomic.incr commits;
          adding := not !adding
        | Error (Core.Db.Error.Aborted _) -> Atomic.incr aborts
        | Error (Core.Db.Error.Apply _) -> adding := true
        | Error e ->
          prerr_endline (Core.Db.Error.to_string e);
          Atomic.set stop true
      done
    in
    let t0 = Unix.gettimeofday () in
    let rd = List.init readers (fun _ -> Domain.spawn reader) in
    let wt = List.init writers (fun i -> Thread.create writer i) in
    Thread.delay duration;
    Atomic.set stop true;
    List.iter Thread.join wt;
    List.iter Domain.join rd;
    let dt = Unix.gettimeofday () -. t0 in
    ( float_of_int (Atomic.get commits) /. dt,
      float_of_int (Atomic.get reads) /. dt,
      Atomic.get aborts,
      Atomic.get read_errors )
  in
  let run path readers writers duration query think par_domains slow_log cache
      cache_size page_bits fill metrics =
    protect_parse (fun () ->
        let db = load ?cache:(cache_cfg cache cache_size) ~page_bits ~fill path in
        Option.iter
          (fun ms -> Core.Profile.Slowlog.configure ~threshold_s:(ms /. 1000.) ())
          slow_log;
        with_domains par_domains @@ fun par ->
        let base_commit_rate, _, base_aborts, _ =
          stress db ~par:None ~readers:0 ~writers ~duration ~query ~think
        in
        Printf.printf "phase 1 (%d writer(s), 0 readers): %.0f commits/s (%d aborts)\n%!"
          writers base_commit_rate base_aborts;
        let commit_rate, read_rate, aborts, read_errors =
          stress db ~par ~readers ~writers ~duration ~query ~think
        in
        Printf.printf
          "phase 2 (%d writer(s), %d reader(s)): %.0f commits/s, %.0f reads/s (%d aborts)\n"
          writers readers commit_rate read_rate aborts;
        let ratio = if commit_rate > 0.0 then base_commit_rate /. commit_rate else infinity in
        Printf.printf "commit slowdown with readers: %.2fx\n" ratio;
        Printf.printf "read-path errors: %d\n" read_errors;
        (match slow_log with
        | None -> ()
        | Some ms -> (
          match Core.Profile.Slowlog.entries () with
          | [] -> Printf.printf "slow-query log (>= %.1fms): empty\n" ms
          | es ->
            Printf.printf "slow-query log (>= %.1fms), slowest first:\n" ms;
            List.iter
              (fun p ->
                Printf.printf "  %9.3fms  %s  (%d items, %d domains, %d steps)\n"
                  (1000. *. p.Core.Profile.total_s)
                  p.Core.Profile.query p.Core.Profile.items p.Core.Profile.domains
                  (List.length p.Core.Profile.steps))
              es));
        if cache || cache_size <> None then print_string (render_cache_stats db);
        (match Core.Schema_up.check_integrity (Core.Db.store db) with
        | Ok () -> print_endline "integrity: OK"
        | Error m -> Printf.printf "integrity FAILED: %s\n" m);
        dump_metrics metrics;
        if read_errors > 0 then 1 else 0)
  in
  let info =
    Cmd.info "concurrent"
      ~doc:
        "Stress snapshot isolation: reader domains scanning concurrently with \
         writer threads; reports commit/read throughput with and without \
         readers."
  in
  Cmd.v info
    Term.(
      const run $ doc_arg $ readers $ writers $ duration $ query $ think
      $ par_domains $ slow_log $ cache_flag $ cache_size_arg $ page_bits $ fill
      $ metrics_flag)

(* ---------------------------------------------------------------- torture *)

(* Failpoint-driven crash-recovery torture. Every iteration forks a child
   that runs a seeded random update workload against a WAL-backed store with
   ONE scheduled failpoint armed; the failpoint kills the child somewhere in
   the commit/checkpoint machinery (SIGKILL — no flush, no at_exit). The
   parent then recovers from checkpoint + WAL and verifies:

   - recovery itself succeeds (torn checkpoints are impossible by
     construction: Db.checkpoint renames a complete temp file into place);
   - Schema_up.check_integrity (pagemap bijection, free runs, node/pos <->
     attribute join, size/level tree consistency);
   - the document validates against the workload's structural schema;
   - serialize -> parse -> reshred -> serialize is the identity;
   - the recovered store accepts a new transaction;
   - committed-prefix durability against a shadow oracle log: the child
     durably logs INTENT i before each update and OK i after; the recovered
     document must equal a deterministic replay of the first n ops where
     acked <= n <= intent — and per failpoint category, crash-before-WAL
     forces n = acked (in-flight transaction absent) while crash-after-WAL
     forces n = intent (in-flight transaction present).

   Everything — workload, failpoint schedule, torn fraction — derives from
   (--seed, grid index, iteration), so any failure replays with one
   command (printed on failure, alongside the dumped artifact directory). *)

module Torture = struct
  type category = Before | After | Neutral

  type entry = {
    site : string;
    cat : category;
    kind : [ `Crash | `Torn | `Delay ];
    max_hits : int;  (* inclusive upper bound for hit-count draws *)
  }

  let kind_name = function `Crash -> "crash" | `Torn -> "torn" | `Delay -> "delay"

  (* One entry per failpoint site x action; iteration seeds use the FULL
     grid index so --site/--action filters never change the schedule. *)
  let grid ~ops =
    let commit = max 1 (ops - 5) in
    let ck = max 1 ((ops / 5) - 1) in
    let rot = max 1 ((ops / 10) - 1) in
    [ { site = "txn.commit.before_wal"; cat = Before; kind = `Crash; max_hits = commit };
      { site = "wal.append.before"; cat = Before; kind = `Crash; max_hits = commit };
      { site = "persist.write_frame"; cat = Before; kind = `Crash; max_hits = commit };
      { site = "persist.write_frame"; cat = Before; kind = `Torn; max_hits = commit };
      { site = "wal.append.after"; cat = After; kind = `Crash; max_hits = commit };
      { site = "txn.commit.after_wal"; cat = After; kind = `Crash; max_hits = commit };
      { site = "txn.commit.mid_apply"; cat = After; kind = `Crash; max_hits = commit };
      { site = "version.capture"; cat = After; kind = `Crash; max_hits = 2 * ops };
      { site = "db.checkpoint.before"; cat = Neutral; kind = `Crash; max_hits = ck };
      { site = "db.checkpoint.mid"; cat = Neutral; kind = `Crash; max_hits = ck };
      { site = "db.checkpoint.after_rename"; cat = Neutral; kind = `Crash; max_hits = ck };
      { site = "db.checkpoint.after"; cat = Neutral; kind = `Crash; max_hits = ck };
      { site = "wal.rotate.before"; cat = Neutral; kind = `Crash; max_hits = rot };
      { site = "wal.rotate.after"; cat = Neutral; kind = `Crash; max_hits = rot };
      { site = "wal.append.before"; cat = Neutral; kind = `Delay; max_hits = commit } ]

  (* ------------------------------------------------------------ workload -- *)

  let base_xml =
    {|<torture><item id="g0">seed</item><item id="g1">two</item></torture>|}

  let schema =
    Core.Validate.of_rules
      [ ( "torture",
          Core.Validate.rule ~content:(Core.Validate.Children_of [ "item" ]) () );
        ("item", Core.Validate.rule ~required:[ "id" ] ()) ]

  type shadow = { mutable live : string list; mutable next : int }

  let fresh_shadow () = { live = [ "g0"; "g1" ]; next = 0 }

  let wrap body =
    Printf.sprintf {|<xupdate:modifications>%s</xupdate:modifications>|} body

  (* Deterministic: the op stream is a pure function of the PRNG and the
     shadow state, and every op succeeds on a store that replayed the same
     prefix — so the parent regenerates the exact child workload. *)
  let gen_op rng sh =
    let n_live = List.length sh.live in
    let pick () = List.nth sh.live (Random.State.int rng n_live) in
    let fresh_item () =
      let id = Printf.sprintf "t%d" sh.next in
      sh.next <- sh.next + 1;
      let txt = Printf.sprintf "v%d" (Random.State.int rng 1000) in
      let body =
        if Random.State.int rng 4 = 0 then
          Printf.sprintf {|<item id="%s"><b>%s</b>%s</item>|} id txt txt
        else Printf.sprintf {|<item id="%s">%s</item>|} id txt
      in
      (id, body)
    in
    let roll = Random.State.int rng 100 in
    if n_live = 0 || roll < 45 then begin
      let id, body = fresh_item () in
      sh.live <- sh.live @ [ id ];
      wrap (Printf.sprintf {|<xupdate:append select="/torture">%s</xupdate:append>|} body)
    end
    else if roll < 60 then begin
      let anchor = pick () in
      let id, body = fresh_item () in
      sh.live <- id :: sh.live;
      wrap
        (Printf.sprintf
           {|<xupdate:insert-before select="/torture/item[@id='%s']">%s</xupdate:insert-before>|}
           anchor body)
    end
    else if roll < 75 && n_live > 1 then begin
      let id = pick () in
      sh.live <- List.filter (fun x -> x <> id) sh.live;
      wrap (Printf.sprintf {|<xupdate:remove select="/torture/item[@id='%s']"/>|} id)
    end
    else if roll < 88 then
      let id = pick () in
      wrap
        (Printf.sprintf
           {|<xupdate:append select="/torture/item[@id='%s']"><xupdate:attribute name="k%d">a%d</xupdate:attribute></xupdate:append>|}
           id (Random.State.int rng 3) (Random.State.int rng 1000))
    else
      let id = pick () in
      wrap
        (Printf.sprintf {|<xupdate:update select="/torture/item[@id='%s']">u%d</xupdate:update>|}
           id (Random.State.int rng 1000))

  (* --------------------------------------------------------- the schedule -- *)

  let schedule_of ~seed ~gidx ~k e =
    let rng = Random.State.make [| seed; gidx; k; 1 |] in
    let action =
      match e.kind with
      | `Crash -> Fault.Crash
      | `Torn -> Fault.Torn_write (0.9 *. Random.State.float rng 1.0)
      | `Delay -> Fault.Delay 0.001
    in
    let policy =
      match e.kind with
      | `Delay -> Fault.Prob 0.5
      | `Crash | `Torn ->
        if Random.State.int rng 4 = 0 then
          Fault.Prob (0.02 +. Random.State.float rng 0.15)
        else Fault.Hit (1 + Random.State.int rng e.max_hits)
    in
    let prng_seed = Random.State.int rng 1_000_000 in
    (policy, action, prng_seed)

  let policy_str = function
    | Fault.One_shot -> "once"
    | Fault.Hit n -> Printf.sprintf "hit:%d" n
    | Fault.Prob p -> Printf.sprintf "p:%.3f" p

  let action_str = function
    | Fault.Crash -> "crash"
    | Fault.Torn_write f -> Printf.sprintf "torn:%.3f" f
    | Fault.Delay s -> Printf.sprintf "delay:%.3f" s

  (* ------------------------------------------------------------ the child -- *)

  let ck_of dir = Filename.concat dir "store.ck"

  let wal_of dir = Filename.concat dir "store.ck.wal"

  let run_child ~dir ~seed ~gidx ~k ~ops ~page_bits e =
    (* child output goes to a log file, the parent's terminal stays clean *)
    let log =
      Unix.openfile (Filename.concat dir "child.log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Unix.dup2 log Unix.stdout;
    Unix.dup2 log Unix.stderr;
    Unix.close log;
    let db =
      Core.Db.of_xml ~page_bits ~fill:0.7 ~wal_path:(wal_of dir) ~schema base_xml
    in
    Core.Db.checkpoint db (ck_of dir);
    let policy, action, prng_seed = schedule_of ~seed ~gidx ~k e in
    Fault.arm ~seed:prng_seed e.site ~policy ~action;
    let oracle = open_out (Filename.concat dir "oracle.log") in
    let rng = Random.State.make [| seed; gidx; k; 2 |] in
    let sh = fresh_shadow () in
    for j = 1 to ops do
      let src = gen_op rng sh in
      Printf.fprintf oracle "INTENT %d\n%!" j;
      (match Core.Db.update db src with
      | Ok _ -> Printf.fprintf oracle "OK %d\n%!" j
      | Error e ->
        Printf.eprintf "op %d failed: %s\n" j (Core.Db.Error.to_string e);
        Printf.fprintf oracle "SKIP %d\n%!" j);
      if j mod 5 = 0 then
        Core.Db.checkpoint ~truncate_wal:(j mod 10 = 0) db (ck_of dir)
    done;
    (* no at_exit: the parent's buffered output was inherited by the fork *)
    Unix._exit 0

  (* ----------------------------------------------------------- the parent -- *)

  let read_oracle path =
    if not (Sys.file_exists path) then (0, 0)
    else begin
      let ic = open_in path in
      let acked = ref 0 and intent = ref 0 in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try
            while true do
              match String.split_on_char ' ' (input_line ic) with
              | [ "INTENT"; j ] -> intent := max !intent (int_of_string j)
              | [ ("OK" | "SKIP"); j ] -> acked := max !acked (int_of_string j)
              | _ -> ()
            done
          with End_of_file -> ());
      (!acked, !intent)
    end

  let check = function
    | Ok () -> None
    | Error msg -> Some msg

  (* All full-document invariants on the recovered store; [Ok n] gives the
     oracle prefix the recovered document matched. *)
  let verify ~dir ~seed ~gidx ~k ~ops ~page_bits ~killed e =
    let acked, intent = read_oracle (Filename.concat dir "oracle.log") in
    if intent - acked > 1 || acked > intent then
      Error (Printf.sprintf "oracle log inconsistent: acked %d, intent %d" acked intent)
    else
      match Core.Db.open_recovered ~wal_path:(wal_of dir) ~checkpoint:(ck_of dir) ~schema () with
      | Error e -> Error ("recovery failed: " ^ Core.Db.Error.to_string e)
      | Ok db -> (
        let recovered = Core.Db.to_xml db in
        let invariants =
          [ (fun () ->
              Core.Schema_up.check_integrity (Core.Db.store db)
              |> Result.map_error (fun m -> "integrity: " ^ m));
            (fun () ->
              Core.Db.read db (fun v -> Core.Validate.check_view schema v)
              |> Result.map_error (fun m -> "schema validation: " ^ m));
            (fun () ->
              let again = Core.Db.to_xml (Core.Db.of_xml recovered) in
              if String.equal again recovered then Ok ()
              else Error "serialize/reshred round-trip diverged");
            (fun () ->
              match
                Core.Db.update db
                  (wrap {|<xupdate:append select="/torture"><item id="post"/></xupdate:append>|})
              with
              | Ok _ -> Ok ()
              | Error e ->
                Error ("post-recovery update refused: " ^ Core.Db.Error.to_string e)) ]
        in
        match List.find_map (fun f -> check (f ())) invariants with
        | Some msg -> Error msg
        | None -> (
          (* committed-prefix durability against the deterministic replay *)
          let replay = Core.Db.of_xml ~page_bits ~fill:0.7 ~schema base_xml in
          let rng = Random.State.make [| seed; gidx; k; 2 |] in
          let sh = fresh_shadow () in
          let matched = ref [] in
          if acked = 0 && String.equal (Core.Db.to_xml replay) recovered then
            matched := 0 :: !matched;
          for j = 1 to min intent ops do
            let src = gen_op rng sh in
            (match Core.Db.update replay src with Ok _ | Error _ -> ());
            if j >= acked && String.equal (Core.Db.to_xml replay) recovered then
              matched := j :: !matched
          done;
          match List.rev !matched with
          | [] ->
            Error
              (Printf.sprintf
                 "recovered document matches no oracle prefix in [%d, %d] — \
                  durability or atomicity violated"
                 acked intent)
          | n :: _ -> (
            match e.cat with
            | Before when killed && n <> acked ->
              Error
                (Printf.sprintf
                   "crash before WAL append, but recovered state includes the \
                    in-flight transaction (prefix %d, acked %d)"
                   n acked)
            | After when killed && n <> intent ->
              Error
                (Printf.sprintf
                   "crash after WAL append lost the in-flight transaction \
                    (prefix %d, intent %d)"
                   n intent)
            | _ -> Ok n)))

  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end

  let mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      (match Filename.dirname dir with
      | "." | "/" -> ()
      | parent -> if not (Sys.file_exists parent) then Unix.mkdir parent 0o755);
      Unix.mkdir dir 0o755
    end

  let status_str = function
    | Unix.WEXITED n -> Printf.sprintf "exit %d" n
    | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
    | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

  let run_one ~artifacts ~keep ~seed ~gidx ~k ~ops ~page_bits e =
    let dir =
      Filename.concat artifacts (Printf.sprintf "%s-%s-%d" e.site (kind_name e.kind) k)
    in
    rm_rf dir;
    mkdir_p dir;
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 -> run_child ~dir ~seed ~gidx ~k ~ops ~page_bits e
    | pid -> (
      let _, status = Unix.waitpid [] pid in
      let killed = status = Unix.WSIGNALED Sys.sigkill in
      let child_ok = killed || status = Unix.WEXITED 0 in
      let result =
        if not child_ok then
          Error ("child died unexpectedly: " ^ status_str status ^ " (see child.log)")
        else verify ~dir ~seed ~gidx ~k ~ops ~page_bits ~killed e
      in
      match result with
      | Ok _ ->
        if not keep then rm_rf dir;
        (true, killed)
      | Error msg ->
        let policy, action, _ = schedule_of ~seed ~gidx ~k e in
        let oc = open_out (Filename.concat dir "repro.txt") in
        Printf.fprintf oc
          "site:      %s\nschedule:  %s@%s\nchild:     %s\niteration: %d\nseed:      \
           %d\nfailure:   %s\nreplay:    xqdb torture --seed %d --ops %d --page-bits \
           %d --site %s --action %s --only %d --keep\n"
          e.site (action_str action) (policy_str policy) (status_str status) k seed
          msg seed ops page_bits e.site (kind_name e.kind) k;
        close_out oc;
        Printf.printf "FAIL %s/%s iter %d: %s\n  artifacts: %s\n%!" e.site
          (kind_name e.kind) k msg dir;
        (false, killed))

  let run ~iters ~seed ~ops ~page_bits ~site ~action ~only ~artifacts ~keep =
    let full = grid ~ops in
    let entries =
      List.filteri (fun _ _ -> true) full
      |> List.mapi (fun gidx e -> (gidx, e))
      |> List.filter (fun (_, e) ->
             (match site with Some s -> String.equal s e.site | None -> true)
             && match action with Some a -> String.equal a (kind_name e.kind) | None -> true)
    in
    if entries = [] then begin
      Printf.eprintf "torture: no grid entry matches the --site/--action filter\n";
      2
    end
    else begin
      mkdir_p artifacts;
      let failures = ref 0 and total = ref 0 in
      List.iter
        (fun (gidx, e) ->
          let pass = ref 0 and crashes = ref 0 in
          let ks = match only with Some k -> [ k ] | None -> List.init iters Fun.id in
          List.iter
            (fun k ->
              incr total;
              let ok, killed =
                run_one ~artifacts ~keep ~seed ~gidx ~k ~ops ~page_bits e
              in
              if ok then incr pass else incr failures;
              if killed then incr crashes)
            ks;
          Printf.printf "  %-28s %-6s %3d/%d ok  (%d crashed)\n%!" e.site
            (kind_name e.kind) !pass (List.length ks) !crashes)
        entries;
      if !failures = 0 && not keep then rm_rf artifacts;
      Printf.printf "torture: %d/%d iterations passed (seed %d, %d ops each)\n"
        (!total - !failures) !total seed ops;
      if !failures > 0 then begin
        Printf.printf "torture: %d FAILED — artifacts in %s\n" !failures artifacts;
        1
      end
      else 0
    end
end

let torture_cmd =
  let iters =
    Arg.(
      value & opt int 10
      & info [ "iters" ] ~doc:"Iterations per failpoint grid entry.")
  in
  let seed = Arg.(value & opt int 20050401 & info [ "seed" ] ~doc:"Master PRNG seed.") in
  let ops =
    Arg.(value & opt int 40 & info [ "ops" ] ~doc:"Update operations per child workload.")
  in
  let pb =
    Arg.(
      value & opt int 3
      & info [ "page-bits" ]
          ~doc:"Logical page size (power of two); small pages force page splices.")
  in
  let site =
    Arg.(
      value & opt (some string) None
      & info [ "site" ] ~docv:"NAME" ~doc:"Run only this failpoint site.")
  in
  let action =
    Arg.(
      value & opt (some (enum [ ("crash", "crash"); ("torn", "torn"); ("delay", "delay") ])) None
      & info [ "action" ] ~doc:"Run only grid entries with this action.")
  in
  let only =
    Arg.(
      value & opt (some int) None
      & info [ "only" ] ~docv:"K" ~doc:"Run only iteration K of each entry (replay).")
  in
  let artifacts =
    Arg.(
      value & opt string "torture-artifacts"
      & info [ "artifacts" ] ~docv:"DIR"
          ~doc:"Directory for failure repro dumps (WAL, checkpoint, oracle log).")
  in
  let keep =
    Arg.(value & flag & info [ "keep" ] ~doc:"Keep per-iteration directories on success.")
  in
  let run iters seed ops page_bits site action only artifacts keep =
    Torture.run ~iters ~seed ~ops ~page_bits ~site ~action ~only ~artifacts ~keep
  in
  let info =
    Cmd.info "torture"
      ~doc:
        "Failpoint-driven crash-recovery torture: fork seeded update \
         workloads, kill them inside the commit/checkpoint critical \
         sections, recover, and verify every document invariant against a \
         shadow oracle log."
  in
  Cmd.v info
    Term.(
      const run $ iters $ seed $ ops $ pb $ site $ action $ only $ artifacts $ keep)

(* ------------------------------------------------------------------ serve *)

let serve_cmd =
  let port =
    Arg.(
      value & opt int 0
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral port; the bound \
                port is printed either way).")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
           ~doc:"Bind address.")
  in
  let max_conns =
    Arg.(
      value & opt int Server.default_config.Server.max_connections
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Live-connection cap; connections beyond it receive one \
                $(b,ERR busy) frame and are closed.")
  in
  let max_frame =
    Arg.(
      value & opt int Server.default_config.Server.max_frame_bytes
      & info [ "max-frame-bytes" ] ~docv:"BYTES"
          ~doc:"Largest accepted request frame.")
  in
  let timeout_ms =
    Arg.(
      value & opt float 30_000.0
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Per-request wall budget; overruns are answered $(b,ERR \
                timeout) and the connection is dropped. 0 disables.")
  in
  let write_deadline_ms =
    Arg.(
      value & opt float 10_000.0
      & info [ "write-deadline-ms" ] ~docv:"MS"
          ~doc:"Drop a client that stops draining its socket for this long \
                (SO_SNDTIMEO). 0 disables.")
  in
  let drain_grace_ms =
    Arg.(
      value & opt float 5_000.0
      & info [ "drain-grace-ms" ] ~docv:"MS"
          ~doc:"On SIGTERM/SIGINT, how long in-flight requests may run on \
                before their connections are cut.")
  in
  let wal =
    Arg.(
      value & opt (some string) None
      & info [ "wal" ] ~docv:"WAL"
          ~doc:"Append commit records to this write-ahead log file.")
  in
  let checkpoint =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"CK"
          ~doc:"Checkpoint target: written once on startup and again (with \
                the WAL truncated) after a graceful drain — so a crash while \
                serving recovers from CK + WAL.")
  in
  let slow_log =
    Arg.(
      value & opt (some float) None
      & info [ "slow-log" ] ~docv:"MS"
          ~doc:"Log queries slower than $(docv) milliseconds (printed to \
                stderr on shutdown).")
  in
  let extra_docs =
    Arg.(
      value & opt_all string []
      & info [ "doc" ] ~docv:"NAME=FILE"
          ~doc:
            "Also serve $(b,FILE) as document $(b,NAME) (repeatable). The \
             positional file stays the default document; clients reach the \
             others with the $(b,DOC) verb.")
  in
  let run path port host max_conns max_frame timeout_ms write_deadline_ms
      drain_grace_ms wal checkpoint slow_log extra_docs domains cache
      cache_size page_bits fill =
    protect_parse (fun () ->
        let db =
          load ?wal_path:wal ?cache:(cache_cfg cache cache_size) ~page_bits
            ~fill path
        in
        List.iter
          (fun spec ->
            match String.index_opt spec '=' with
            | None | Some 0 ->
              Printf.eprintf "bad --doc %S (expected NAME=FILE)\n" spec;
              exit 2
            | Some i ->
              let name = String.sub spec 0 i in
              let file = String.sub spec (i + 1) (String.length spec - i - 1) in
              let src = parse_xml_file ~what:"xml" file (fun s -> s) in
              (match Core.Db.create_doc_xml ~page_bits ~fill db name src with
              | Result.Ok () -> ()
              | Error e ->
                Printf.eprintf "--doc %s: %s\n" name (Core.Db.Error.to_string e);
                exit 2))
          extra_docs;
        Option.iter
          (fun ms -> Core.Profile.Slowlog.configure ~threshold_s:(ms /. 1000.) ())
          slow_log;
        let config =
          { Server.host;
            port;
            max_connections = max_conns;
            max_frame_bytes = max_frame;
            request_timeout_s = timeout_ms /. 1000.;
            write_deadline_s = write_deadline_ms /. 1000.;
            drain_grace_s = drain_grace_ms /. 1000.;
            checkpoint_to = checkpoint }
        in
        with_domains domains @@ fun par ->
        let srv = Server.start ~config ?par db in
        (* flushed so spawning tests/benches can read the ephemeral port *)
        Printf.printf "listening on %s:%d\n%!" host (Server.port srv);
        let on_signal _ = Server.stop srv in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
        Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
        Server.wait srv;
        (match slow_log with
        | None -> ()
        | Some ms ->
          List.iter
            (fun p ->
              Printf.eprintf "slow: %9.3fms  %s\n" (1000. *. p.Core.Profile.total_s)
                p.Core.Profile.query)
            (Core.Profile.Slowlog.entries ());
          ignore ms);
        Core.Db.close db;
        0)
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Serve a document over TCP: concurrent sessions with \
         snapshot-isolated reads and serialized writes, length-prefixed text \
         frames (see PROTOCOL.md). SIGTERM drains gracefully: stop \
         accepting, finish in-flight requests, checkpoint, exit 0."
  in
  Cmd.v info
    Term.(
      const run $ doc_arg $ port $ host $ max_conns $ max_frame $ timeout_ms
      $ write_deadline_ms $ drain_grace_ms $ wal $ checkpoint $ slow_log
      $ extra_docs $ domains_arg $ cache_flag $ cache_size_arg $ page_bits
      $ fill)

(* ----------------------------------------------------------------- client *)

let client_cmd =
  let verb =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"VERB"
          ~doc:"PING, QUERY, COUNT, EXPLAIN, PROFILE, UPDATE, DOC, LS, \
                CREATE, DROP, METRICS, CACHE or QUIT.")
  in
  let arg = Arg.(value & pos 1 (some string) None & info [] ~docv:"ARG") in
  let port =
    Arg.(required & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"Server port.")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR")
  in
  let body_file =
    Arg.(
      value & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:"Read the UPDATE (or CREATE) body from this file ($(b,-) = \
                stdin).")
  in
  let doc_scope =
    Arg.(
      value & opt (some string) None
      & info [ "doc" ] ~docv:"NAME"
          ~doc:"Scope the request to this document: a $(b,DOC) frame is \
                sent first on the same connection.")
  in
  (* ERR busy and ERR timeout are transient server states — a retry loop
     around the client can key on exit code 2; every other ERR is 1. *)
  let err_exit_code = function "busy" | "timeout" -> 2 | _ -> 1
  in
  (* One request/response round trip; [quiet] suppresses the OK payload
     (used for the scoping DOC frame). *)
  let roundtrip ?(quiet = false) fd payload =
    Server.Protocol.write_frame fd payload;
    match
      Server.Protocol.read_frame
        ~max_bytes:Server.Protocol.client_max_response_bytes fd
    with
    | Error e ->
      Printf.eprintf "%s\n" (Server.Protocol.read_error_text e);
      1
    | Ok frame -> (
      match Server.Protocol.parse_response frame with
      | Error msg ->
        Printf.eprintf "bad response: %s\n" msg;
        1
      | Ok (Server.Protocol.Ok out) ->
        if out <> "" && not quiet then print_endline out;
        0
      | Ok (Server.Protocol.Err { code; msg }) ->
        Printf.eprintf "ERR %s: %s\n" code msg;
        err_exit_code code)
  in
  let run verb arg port host body_file doc_scope =
    let body =
      match body_file with
      | Some "-" -> Some (In_channel.input_all stdin)
      | Some f -> Some (read_file f)
      | None -> None
    in
    let payload =
      match (String.uppercase_ascii verb, arg, body) with
      | "UPDATE", _, Some b -> "UPDATE\n" ^ b
      | "UPDATE", Some inline, None -> "UPDATE\n" ^ inline
      | "CREATE", Some name, Some b -> "CREATE " ^ name ^ "\n" ^ b
      | v, Some a, _ -> v ^ " " ^ a
      | v, None, _ -> v
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
        with
        | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "connect %s:%d: %s\n" host port (Unix.error_message e);
          1
        | () -> (
          match doc_scope with
          | None -> roundtrip fd payload
          | Some d -> (
            match roundtrip ~quiet:true fd ("DOC " ^ d) with
            | 0 -> roundtrip fd payload
            | code -> code)))
  in
  let info =
    Cmd.info "client"
      ~doc:
        "Send one request to a running $(b,xqdb serve) and print the \
         response. Exit 0 on OK; 2 on the retryable $(b,ERR busy) / $(b,ERR \
         timeout); 1 on any other ERR."
  in
  Cmd.v info Term.(const run $ verb $ arg $ port $ host $ body_file $ doc_scope)

let () =
  (* Manual fault injection for any subcommand, e.g.
     XQDB_FAILPOINTS='wal.append.after=crash@hit:3' xqdb update --wal ... *)
  (match Sys.getenv_opt "XQDB_FAILPOINTS" with
  | None -> ()
  | Some spec -> (
    match Fault.arm_spec spec with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "bad XQDB_FAILPOINTS: %s\n" msg;
      exit 2));
  let info =
    Cmd.info "xqdb" ~version:"1.0"
      ~doc:"Updatable pre/post-plane XML store (MonetDB/XQuery, SIGMOD 2005)"
  in
  exit (Cmd.eval' (Cmd.group info
                     [ query_cmd; explain_cmd; profile_cmd; xquery_cmd;
                       update_cmd; stats_cmd; xmark_cmd; metrics_cmd;
                       checkpoint_cmd; recover_cmd; import_cmd; ls_cmd;
                       concurrent_cmd; torture_cmd; serve_cmd; client_cmd ]))
