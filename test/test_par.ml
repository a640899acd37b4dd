(* lib/core/par + the parallel query mode: pool mechanics, equivalence of
   parallel and sequential evaluation (cutoffs forced to 1 so the machinery
   runs even on small documents), vacuum racing pinned parallel readers, and
   a forked crash with the [version.capture] failpoint firing while parallel
   readers are active. *)

module Db = Core.Db
module Par = Core.Par

(* ---------------------------------------------------------------- pool -- *)

let test_create_invalid () =
  Alcotest.check_raises "domains=0 rejected"
    (Invalid_argument "Par.create: domains must be >= 1") (fun () ->
      ignore (Par.create ~domains:0 ()))

let test_run_order () =
  Par.with_pool ~domains:4 (fun p ->
      let expect = List.init 64 (fun i -> i * i) in
      let got = Par.run p (List.map (fun v () -> v) expect) in
      Alcotest.(check (list int)) "results in submission order" expect got;
      Alcotest.(check (list int)) "empty batch" [] (Par.run p []);
      Alcotest.(check (list int)) "singleton batch" [ 7 ] (Par.run p [ (fun () -> 7) ]))

let test_run_parallel_work () =
  (* the batch really runs across domains: every thunk records its domain *)
  Par.with_pool ~domains:4 (fun p ->
      let ids =
        Par.run p
          (List.init 32 (fun _ () ->
               (* enough work that workers get a chance to pick tasks up *)
               let s = ref 0 in
               for i = 1 to 10_000 do s := !s + i done;
               ignore !s;
               (Domain.self () :> int)))
      in
      Alcotest.(check int) "all thunks ran" 32 (List.length ids))

exception Boom of int

let test_run_exception () =
  Par.with_pool ~domains:3 (fun p ->
      let ran = Atomic.make 0 in
      let thunks =
        List.init 16 (fun i () ->
            Atomic.incr ran;
            if i = 5 then raise (Boom i);
            i)
      in
      (match Par.run p thunks with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 5 -> ());
      Alcotest.(check int) "whole batch settled before re-raise" 16 (Atomic.get ran);
      (* the pool survives a failing batch *)
      Alcotest.(check (list int)) "pool usable after exception" [ 1; 2 ]
        (Par.run p [ (fun () -> 1); (fun () -> 2) ]))

let test_one_domain_inline () =
  Par.with_pool ~domains:1 (fun p ->
      Alcotest.(check int) "no workers spawned" 1 (Par.domains p);
      let self = (Domain.self () :> int) in
      let ids = Par.run p (List.init 8 (fun _ () -> (Domain.self () :> int))) in
      List.iter
        (fun id -> Alcotest.(check int) "1-domain pool runs inline" self id)
        ids)

let test_shutdown_idempotent () =
  let p = Par.create ~domains:3 () in
  Par.shutdown p;
  Par.shutdown p;
  Alcotest.(check (list int)) "run after shutdown is inline" [ 0; 1; 2 ]
    (Par.run p [ (fun () -> 0); (fun () -> 1); (fun () -> 2) ])

(* ------------------------------------------------- parallel ≡ sequential -- *)

(* Queries chosen to hit every plan: range (descendant steps, including
   chained ones), ctx (child steps over many contexts, positional and value
   predicates — positional ones disqualify the range plan), and the
   attribute final step. *)
let queries =
  [ "//item";
    "//keyword";
    "//item//keyword";
    "/site/regions/*/item";
    "//item[@id]";
    "//bidder[1]";
    "//item[1]//keyword";
    "//person[profile]";
    "//item/@id";
    "/site//open_auction/bidder[last()]"
  ]

let test_par_equals_seq () =
  let db = Db.create ~page_bits:6 ~fill:0.8 (Xmark.Gen.of_scale 0.002) in
  (* cutoffs forced to 1: every eligible step is partitioned even though the
     document is small *)
  Par.with_pool ~range_cutoff:1 ~ctx_cutoff:1 ~domains:4 (fun pool ->
      List.iter
        (fun q ->
          let seq = Db.get_exn (Db.query db q) in
          let par = Db.get_exn (Db.query ~par:pool db q) in
          Alcotest.(check int)
            (Printf.sprintf "%s: same cardinality" q)
            (List.length seq) (List.length par);
          Alcotest.(check bool) (Printf.sprintf "%s: same items" q) true (seq = par))
        queries)

let test_par_equals_seq_sessions () =
  (* the session-level API takes the same parallel path *)
  let db = Db.create ~page_bits:6 ~fill:0.8 (Xmark.Gen.of_scale 0.002) in
  Par.with_pool ~range_cutoff:1 ~ctx_cutoff:1 ~domains:3 (fun pool ->
      List.iter
        (fun q ->
          let in_session par =
            Db.get_exn
              (Db.read_txn ?par db (fun s -> Db.get_exn (Db.Session.query s q)))
          in
          let seq = in_session None and par = in_session (Some pool) in
          Alcotest.(check bool) (Printf.sprintf "%s: same items" q) true (seq = par))
        queries)

(* Regression: spans opened on worker domains used to be lost (each domain
   has its own span stack, so worker spans could never reach the caller's
   trace). With span contexts, every partition of a parallel step must show
   up as a [par.task] child inside the query's own trace. *)
let test_worker_spans_attach_to_query_trace () =
  let db = Db.create ~page_bits:6 ~fill:0.8 (Xmark.Gen.of_scale 0.002) in
  (* clear the trace ring: earlier tests run parallel queries without an
     enclosing span, whose tasks correctly surface as root traces *)
  Obs.reset ();
  Par.with_pool ~range_cutoff:1 ~ctx_cutoff:1 ~domains:4 (fun pool ->
      let _, p = Db.get_exn (Db.query_profiled ~par:pool db "//item//keyword") in
      let root =
        match p.Core.Profile.trace with
        | Some s -> s
        | None -> Alcotest.fail "profiled query has no trace"
      in
      Alcotest.(check string) "root span" "db.query" root.Obs.Span.name;
      let rec collect (s : Obs.Span.t) =
        s :: List.concat_map collect s.Obs.Span.children
      in
      let tasks =
        List.filter (fun (s : Obs.Span.t) -> s.Obs.Span.name = "par.task")
          (collect root)
      in
      Alcotest.(check bool) "worker spans present in the trace" true
        (List.length tasks >= 2);
      (* every task span carries its partition index and domain id *)
      List.iter
        (fun (s : Obs.Span.t) ->
          let has k =
            List.exists (fun (k', _) -> k' = k) s.Obs.Span.attrs
          in
          Alcotest.(check bool) "task attr" true (has "task");
          Alcotest.(check bool) "domain attr" true (has "domain"))
        tasks;
      (* and none of them leaked out as a root trace of its own *)
      let stray =
        List.exists
          (fun (t : Obs.Span.t) -> t.Obs.Span.name = "par.task")
          (Obs.Span.recent ())
      in
      Alcotest.(check bool) "no stray par.task roots" false stray)

(* --------------------------------------------- vacuum vs pinned readers -- *)

(* Parallel readers pin snapshots while the main thread commits and then
   vacuums. Vacuum waits for reader quiescence, so it must neither corrupt a
   pinned parallel scan nor deadlock against the pool; each reader checks
   that two scans inside one pin agree (the snapshot cannot move), and the
   store passes an integrity check afterwards. *)
let test_vacuum_race () =
  let db = Db.create ~page_bits:5 ~fill:0.8 (Xmark.Gen.of_scale 0.002) in
  Par.with_pool ~range_cutoff:1 ~ctx_cutoff:1 ~domains:3 (fun pool ->
      let failures = Atomic.make 0 in
      let reader () =
        for _ = 1 to 40 do
          Db.get_exn (Db.read_txn ~par:pool db (fun s ->
              let a = Db.get_exn (Db.Session.count s "//item") in
              Unix.sleepf 0.001;
              let b = Db.get_exn (Db.Session.count s "//item") in
              if a <> b then Atomic.incr failures));
          Unix.sleepf 0.001
        done
      in
      let readers = List.init 2 (fun _ -> Domain.spawn reader) in
      for i = 1 to 5 do
        ignore
          (Db.get_exn (Db.update db
             (Printf.sprintf
                {|<xupdate:modifications><xupdate:append select="/site"><extra n="%d"/></xupdate:append></xupdate:modifications>|}
                i)));
        Db.vacuum db;
        Unix.sleepf 0.002
      done;
      List.iter Domain.join readers;
      Alcotest.(check int) "snapshots never moved under a pin" 0
        (Atomic.get failures);
      (match Core.Schema_up.check_integrity (Db.store db) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "integrity after vacuum race: %s" m);
      Alcotest.(check int) "all appends survived" 5
        (Db.get_exn (Db.query_count db "/site/extra")))

(* -------------------------------------- forked version.capture crash -- *)

let with_dir f =
  let dir = Filename.temp_file "par_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let killed = Unix.WSIGNALED Sys.sigkill

(* The child runs parallel readers against a WAL-backed store and commits
   until the [version.capture] failpoint kills it — inside the seqlock's
   odd-seq window, after the WAL frame, while the pool domains are mid-scan.
   Recovery must see the in-flight transaction (the site is after the WAL
   append) and an intact store: parallel readers share the committing
   process but must not be able to widen the crash window.

   The crash child cannot be forked: Unix.fork is forbidden once any domain
   has ever been spawned, and earlier tests in this binary create pools. The
   test re-executes its own binary with PAR_CRASH_DIR set instead
   (create_process is posix_spawn-based and domain-safe); crash_child_main
   intercepts that marker before alcotest starts. *)
let crash_child_main dir =
  let ck = Filename.concat dir "store.ck" in
  let wal = ck ^ ".wal" in
  let db = Db.of_xml ~page_bits:3 ~wal_path:wal "<r><i>one</i></r>" in
  Db.checkpoint db ck;
  let pool = Par.create ~range_cutoff:1 ~ctx_cutoff:1 ~domains:3 () in
  let stop = Atomic.make false in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              ignore (Db.read_txn ~par:pool db (fun s -> Db.Session.count s "//i"))
            done))
  in
  (* the first commit captures pre-images for the pinned readers and dies on
     the failpoint; SIGKILL takes the pool domains with it *)
  Fault.arm ~seed:1 "version.capture" ~policy:Fault.One_shot ~action:Fault.Crash;
  for j = 1 to 2 do
    ignore
      (Db.update db
         (Printf.sprintf
            {|<xupdate:modifications><xupdate:append select="/r"><i>n%d</i></xupdate:append></xupdate:modifications>|}
            j))
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  Unix._exit 0

let test_crash_during_capture () =
  with_dir (fun dir ->
      let ck = Filename.concat dir "store.ck" in
      let st =
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let env =
          Array.append (Unix.environment ()) [| "PAR_CRASH_DIR=" ^ dir |]
        in
        let pid =
          Unix.create_process_env Sys.executable_name
            [| Sys.executable_name |] env Unix.stdin null null
        in
        Unix.close null;
        snd (Unix.waitpid [] pid)
      in
      Alcotest.(check bool) "child killed by failpoint" true (st = killed);
      match Db.open_recovered ~checkpoint:ck () with
      | Error e -> Alcotest.failf "recovery failed: %s" (Db.Error.to_string e)
      | Ok db ->
        (* version.capture fires after the WAL append: the dying commit is
           durable *)
        Alcotest.(check int) "in-flight commit recovered" 2
          (Db.get_exn (Db.query_count db "/r/i"));
        (match Core.Schema_up.check_integrity (Db.store db) with
        | Ok () -> ()
        | Error m -> Alcotest.failf "integrity after recovery: %s" m);
        (* the recovered store accepts new work, in parallel too *)
        Par.with_pool ~range_cutoff:1 ~ctx_cutoff:1 ~domains:2 (fun pool ->
            Alcotest.(check int) "parallel query after recovery" 2
              (List.length (Db.get_exn (Db.query ~par:pool db "//i")))))

let () =
  (match Sys.getenv_opt "PAR_CRASH_DIR" with
  | Some dir -> crash_child_main dir
  | None -> ());
  Alcotest.run "par"
    [ ( "pool",
        [ Alcotest.test_case "create rejects domains=0" `Quick test_create_invalid;
          Alcotest.test_case "results in order" `Quick test_run_order;
          Alcotest.test_case "work spreads across domains" `Quick test_run_parallel_work;
          Alcotest.test_case "exception re-raised after settle" `Quick test_run_exception;
          Alcotest.test_case "1-domain pool is inline" `Quick test_one_domain_inline;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent
        ] );
      ( "equivalence",
        [ Alcotest.test_case "Db.query par = seq" `Quick test_par_equals_seq;
          Alcotest.test_case "Session.query par = seq" `Quick
            test_par_equals_seq_sessions
        ] );
      ( "tracing",
        [ Alcotest.test_case "worker spans attach to the query trace" `Quick
            test_worker_spans_attach_to_query_trace
        ] );
      ( "interleavings",
        [ Alcotest.test_case "vacuum vs pinned parallel readers" `Quick
            test_vacuum_race;
          Alcotest.test_case "crash in version.capture under parallel readers"
            `Quick test_crash_during_capture
        ] )
    ]
