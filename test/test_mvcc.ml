(* Snapshot-isolated reads (MVCC): pinned snapshots are immutable under
   concurrent commits, the read path takes no locks at all, checkpoint can
   truncate the WAL atomically, and the Db result/session API surfaces
   failures as values. *)

module P = Xml.Xml_parser
module Up = Core.Schema_up
module Db = Core.Db
module Txn = Core.Txn
module Session = Core.Db.Session

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_integrity db =
  match Up.check_integrity (Db.store db) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "integrity: %s" m

(* Current value of a counter instrument, by name + label subset. *)
let counter_value name labels =
  let s = Obs.snapshot () in
  let hit =
    List.find_opt
      (fun (n, ls, _, _) ->
        String.equal n name && List.for_all (fun kv -> List.mem kv ls) labels)
      s.Obs.entries
  in
  match hit with Some (_, _, _, Obs.Counter v) -> v | _ -> 0

let pair_update =
  {|<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/root/left"><l/></xupdate:append>
      <xupdate:append select="/root/right"><r/></xupdate:append>
    </xupdate:modifications>|}

(* Deadlock aborts [update_retry] has seen. Every increment of the
   process-global lock.would_deadlock counter raises exactly one
   Would_deadlock, which reaches its writer as [Aborted "deadlock …"]; the
   writers retry those by design, so the read path's share of the counter is
   its delta minus this one's. *)
let writer_deadlocks = Atomic.make 0

let rec update_retry ?(tries = 200) db src =
  match Db.update db src with
  | Ok n -> n
  | Error (Db.Error.Aborted msg) when tries > 0 ->
    if String.starts_with ~prefix:"deadlock" msg then
      Atomic.incr writer_deadlocks;
    Thread.delay 0.001;
    update_retry ~tries:(tries - 1) db src
  | Error e -> Alcotest.failf "update: %s" (Db.Error.to_string e)

(* ------------------------------------------------- snapshot immutability -- *)

(* A pinned snapshot serialises byte-identically before and after a commit
   that lands while it is pinned; a fresh snapshot sees the commit. *)
let test_snapshot_stable_across_commit () =
  let db = Db.of_xml "<root><left></left><right></right></root>" in
  Db.get_exn (Db.read_txn db (fun s ->
      let before = Session.serialize s in
      let writer =
        Thread.create (fun () -> ignore (update_retry db pair_update)) ()
      in
      Thread.join writer;
      let after = Session.serialize s in
      Alcotest.(check string) "pinned snapshot unchanged" before after;
      Alcotest.(check int) "pinned snapshot sees no <l/>" 0
        (Db.get_exn (Session.count s "/root/left/l"))));
  Alcotest.(check int) "fresh snapshot sees the commit" 1
    (Db.get_exn (Db.query_count db "/root/left/l"));
  check_integrity db

(* Same property under QCheck: any prefix of commits, then a pin, then any
   suffix of commits — the pinned serialisation never moves. *)
let prop_snapshot_frozen =
  QCheck.Test.make ~count:30 ~name:"pinned snapshot is frozen"
    QCheck.(pair (int_bound 5) (int_bound 8))
    (fun (before_n, after_n) ->
      let db = Db.of_xml "<root><left></left><right></right></root>" in
      for _ = 1 to before_n do
        ignore (update_retry db pair_update)
      done;
      Db.get_exn (Db.read_txn db (fun s ->
          let frozen = Session.serialize s in
          let cnt = Db.get_exn (Session.count s "/root/left/l") in
          for _ = 1 to after_n do
            ignore (update_retry db pair_update)
          done;
          String.equal frozen (Session.serialize s)
          && Db.get_exn (Session.count s "/root/left/l") = cnt
          && cnt = before_n)))

(* ------------------------------------------------------- lock-free reads -- *)

(* The retired global read lock: a burst of queries and read transactions
   acquires no lock of any kind and can never deadlock. *)
let test_reads_take_no_locks () =
  let db = Db.of_xml "<root><left><l/></left><right><r/></right></root>" in
  let before_global = counter_value "lock.acquisitions" [ ("scope", "global") ] in
  let before_page = counter_value "lock.acquisitions" [ ("scope", "page") ] in
  let before_dead = counter_value "lock.would_deadlock" [] in
  for _ = 1 to 50 do
    ignore (Db.query db "//l");
    Db.get_exn (Db.read_txn db (fun s ->
        ignore (Db.get_exn (Session.count s "/root/right/r"));
        ignore (Session.serialize s)))
  done;
  Alcotest.(check int) "no global lock on read path" before_global
    (counter_value "lock.acquisitions" [ ("scope", "global") ]);
  Alcotest.(check int) "no page lock on read path" before_page
    (counter_value "lock.acquisitions" [ ("scope", "page") ]);
  Alcotest.(check int) "no deadlock on read path" before_dead
    (counter_value "lock.would_deadlock" [])

(* -------------------------------------------------------- domains stress -- *)

(* N reader domains scan while writers commit paired inserts; every snapshot
   must satisfy the invariant count(left) = count(right) — a torn read
   (seeing one half of a commit) breaks it immediately. Read path must come
   through with zero errors of any kind. *)
let test_concurrent_readers_writers () =
  let db = Db.of_xml "<root><left></left><right></right></root>" in
  let commits_target = 25 in
  let stop = Atomic.make false in
  let torn = Atomic.make 0 and read_errors = Atomic.make 0 in
  let snapshots_checked = Atomic.make 0 in
  let reader () =
    while not (Atomic.get stop) do
      (match
         Db.read_txn db (fun s ->
             let l = Db.get_exn (Session.count s "/root/left/l") in
             let r = Db.get_exn (Session.count s "/root/right/r") in
             if l <> r then Atomic.incr torn)
       with
      | Ok () -> Atomic.incr snapshots_checked
      | Error _ -> Atomic.incr read_errors);
      Unix.sleepf 0.002
    done
  in
  let before_dead = counter_value "lock.would_deadlock" [] in
  let before_writer_dead = Atomic.get writer_deadlocks in
  let readers = List.init 2 (fun _ -> Domain.spawn reader) in
  let writers =
    List.init 2 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to commits_target do
              ignore (update_retry db pair_update)
            done)
          ())
  in
  List.iter Thread.join writers;
  Atomic.set stop true;
  List.iter Domain.join readers;
  Alcotest.(check int) "no torn snapshot" 0 (Atomic.get torn);
  Alcotest.(check int) "no read errors" 0 (Atomic.get read_errors);
  Alcotest.(check int) "no read-path deadlocks"
    (Atomic.get writer_deadlocks - before_writer_dead)
    (counter_value "lock.would_deadlock" [] - before_dead);
  Alcotest.(check bool) "readers made progress" true
    (Atomic.get snapshots_checked > 0);
  (* 2 writers x commits_target pairs, one <l/> and one <r/> each *)
  Alcotest.(check int) "final invariant" (4 * commits_target)
    (Db.get_exn (Db.query_count db "/root/left/l")
     + Db.get_exn (Db.query_count db "/root/right/r"));
  check_integrity db

(* ------------------------------------------------- checkpoint + truncate -- *)

let test_checkpoint_truncates_wal () =
  let dir = Filename.temp_file "mvcc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let wal = Filename.concat dir "log.wal" in
  let ckpt = Filename.concat dir "snap.ckpt" in
  let db = Db.of_xml ~wal_path:wal "<root><left></left><right></right></root>" in
  for _ = 1 to 5 do
    ignore (update_retry db pair_update)
  done;
  Alcotest.(check bool) "wal grew" true ((Unix.stat wal).Unix.st_size > 0);
  Db.checkpoint ~truncate_wal:true db ckpt;
  Alcotest.(check int) "wal empty after atomic rotate" 0
    (Unix.stat wal).Unix.st_size;
  (* post-checkpoint commits land in the fresh log and replay on top *)
  ignore (update_retry db pair_update);
  let expect = Db.to_xml db in
  Db.close db;
  (match Db.open_recovered ~wal_path:wal ~checkpoint:ckpt () with
  | Ok db2 ->
    Alcotest.(check string) "checkpoint + rotated wal recovers" expect
      (Db.to_xml db2);
    Alcotest.(check int) "six pairs" 6
      (Db.get_exn (Db.query_count db2 "/root/left/l"));
    Db.close db2
  | Error e -> Alcotest.failf "recover: %s" (Db.Error.to_string e));
  Sys.remove wal;
  Sys.remove ckpt;
  Unix.rmdir dir

(* ----------------------------------------------------------- result API -- *)

let test_error_values () =
  let db = Db.of_xml "<root><a/></root>" in
  (match Db.query db "///" with
  | Error (Db.Error.Parse { source = "xpath"; _ }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected xpath Parse error");
  (match Db.update db "<not-xupdate/>" with
  | Error (Db.Error.Parse { source = "xupdate"; _ }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected xupdate Parse error");
  (match
     Db.update db
       {|<xupdate:modifications><xupdate:remove select="/root"/></xupdate:modifications>|}
   with
  | Error (Db.Error.Apply _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Apply error");
  (match Db.open_recovered ~checkpoint:"/nonexistent/path.ckpt" () with
  | Error (Db.Error.Io _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Io error");
  (* get_exn raises Failed, and a result entry point turns it back into
     the same Error *)
  (match Db.read_txn db (fun s -> Db.get_exn (Session.count s "///")) with
  | Error (Db.Error.Parse { source = "xpath"; _ }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected the session's Parse error");
  (match Db.get_exn (Db.query_count ~doc:"nope" db "/") with
  | _ -> Alcotest.fail "expected Failed"
  | exception Db.Failed (Db.Error.Catalog _) -> ());
  (* messages stay human-readable *)
  (match Db.query db "///" with
  | Error e ->
    Alcotest.(check bool) "to_string mentions source" true
      (contains (Db.Error.to_string e) "xpath error")
  | Ok _ -> Alcotest.fail "expected error")

let test_session_api () =
  let db = Db.of_xml "<root><a>one</a><a>two</a></root>" in
  (* one read session, several statements, one snapshot *)
  Db.get_exn (Db.read_txn db (fun s ->
      Alcotest.(check bool) "read session" false (Session.writable s);
      Alcotest.(check int) "count" 2 (Db.get_exn (Session.count s "/root/a"));
      Alcotest.(check (list string)) "strings" [ "one"; "two" ]
        (Db.get_exn (Session.strings s "/root/a"));
      match Session.update s "<xupdate:modifications/>" with
      | Error _ | (exception Invalid_argument _) -> ()
      | Ok _ -> Alcotest.fail "update on read session must not commit"));
  (* a write session sees its own uncommitted work *)
  let seen_inside =
    Db.get_exn (Db.write_txn db (fun s ->
        Alcotest.(check bool) "write session" true (Session.writable s);
        ignore
          (Session.update s
             {|<xupdate:modifications><xupdate:append select="/root"><b/></xupdate:append></xupdate:modifications>|});
        Db.get_exn (Session.count s "/root/b")))
  in
  Alcotest.(check int) "own write visible in-session" 1 seen_inside;
  Alcotest.(check int) "committed" 1 (Db.get_exn (Db.query_count db "/root/b"));
  (* an aborted write session leaves no trace *)
  (match
     Db.write_txn db (fun s ->
         ignore
           (Session.update s
              {|<xupdate:modifications><xupdate:append select="/root"><c/></xupdate:append></xupdate:modifications>|});
         failwith "client bails")
   with
  | Error (Db.Error.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "expected the session to fail"
  | Error e -> Alcotest.failf "unexpected: %s" (Db.Error.to_string e));
  Alcotest.(check int) "aborted write rolled back" 0
    (Db.get_exn (Db.query_count db "/root/c"));
  check_integrity db

(* mvcc instruments are registered and move under load *)
let test_mvcc_metrics () =
  let db = Db.of_xml "<root><left></left><right></right></root>" in
  let pins0 = counter_value "mvcc.pins" [] in
  Db.get_exn
    (Db.read_txn db (fun s ->
         ignore (Db.get_exn (Session.count s "/root/left"))));
  ignore (update_retry db pair_update);
  Alcotest.(check bool) "mvcc.pins counts" true (counter_value "mvcc.pins" [] > pins0);
  let rendered = Obs.render_table (Obs.snapshot ()) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (contains rendered n))
    [ "mvcc.pins"; "mvcc.live_versions"; "mvcc.pinned_readers";
      "mvcc.versions_reclaimed"; "mvcc.commit_cs_latency"; "wal.rotations" ]

let () =
  Alcotest.run "mvcc"
    [ ( "snapshots",
        [ Alcotest.test_case "stable across commit" `Quick
            test_snapshot_stable_across_commit;
          Testsupport.qcheck_case prop_snapshot_frozen ] );
      ( "lock-free reads",
        [ Alcotest.test_case "no locks on read path" `Quick
            test_reads_take_no_locks;
          Alcotest.test_case "domains stress" `Quick
            test_concurrent_readers_writers ] );
      ( "checkpoint",
        [ Alcotest.test_case "truncate_wal" `Quick test_checkpoint_truncates_wal ] );
      ( "result api",
        [ Alcotest.test_case "error values" `Quick test_error_values;
          Alcotest.test_case "sessions" `Quick test_session_api;
          Alcotest.test_case "metrics" `Quick test_mvcc_metrics ] ) ]
