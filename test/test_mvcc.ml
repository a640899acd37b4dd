(* Snapshot-isolated reads (MVCC): pinned snapshots are immutable under
   concurrent commits, the read path never enters the write protocol,
   checkpoint can
   truncate the WAL atomically, and the Db result/session API surfaces
   failures as values. *)

module P = Xml.Xml_parser
module Up = Core.Schema_up
module Db = Core.Db
module Txn = Core.Txn
module View = Core.View
module Version = Core.Version
module Session = Core.Db.Session
module U = Core.Update

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

let rec update_retry ?(tries = 200) db src =
  match Db.update db src with
  | Ok n -> n
  | Error (Db.Error.Aborted _) when tries > 0 ->
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

(* ------------------------------------------------- current-version reads -- *)

let overtaken () = counter_value "mvcc.overtaken_reads" []

let temp_dir () =
  let dir = Filename.temp_file "mvcc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

(* A snapshot of a version no commit has overtaken reads the base directly:
   rendering the whole document and an attribute query leave
   mvcc.overtaken_reads where it was. The four stores pin versions made by
   each way a descriptor is built: a fresh chain (shred, recovery), a commit,
   and a vacuum. *)
let test_current_reads_fast () =
  let check_fast what db =
    let before = overtaken () in
    let xml, ids =
      Db.get_exn
        (Db.read_txn db (fun s ->
             (Session.serialize s, Db.get_exn (Session.count s "//*[@id]"))))
    in
    Alcotest.(check bool) (what ^ ": document read") true (String.length xml > 0);
    Alcotest.(check int) (what ^ ": attribute read") 1 ids;
    Alcotest.(check int) (what ^ ": no overtaken read") before (overtaken ())
  in
  let dir = temp_dir () in
  let wal = Filename.concat dir "log.wal" in
  let ckpt = Filename.concat dir "snap.ckpt" in
  let db =
    Db.of_xml ~page_bits:2 ~wal_path:wal
      {|<root><left id="l"></left><right></right></root>|}
  in
  check_fast "shredded" db;
  ignore (update_retry db pair_update);
  check_fast "updated" db;
  Db.vacuum ~checkpoint_to:ckpt db;
  check_fast "vacuumed" db;
  ignore (update_retry db pair_update);
  let expect = Db.to_xml db in
  Db.close db;
  let db =
    match Db.open_recovered ~wal_path:wal ~checkpoint:ckpt () with
    | Ok db -> db
    | Error e -> Alcotest.failf "recover: %s" (Db.Error.to_string e)
  in
  Alcotest.(check string) "recovered" expect (Db.to_xml db);
  check_fast "recovered" db;
  (* a snapshot pinned before a commit is overtaken by it: its reads take
     the fallback, and still see the pinned state *)
  Db.get_exn
    (Db.read_txn db (fun s ->
         let before = Session.serialize s in
         let c0 = overtaken () in
         ignore (update_retry db pair_update);
         let after = Session.serialize s in
         Alcotest.(check string) "overtaken snapshot unchanged" before after;
         Alcotest.(check bool) "overtaken reads counted" true (overtaken () > c0)));
  Db.close db;
  Sys.remove wal;
  Sys.remove ckpt;
  Unix.rmdir dir

(* Every snapshot accessor at every pre of the extent, one line per slot. *)
let dump v =
  List.init (View.extent v) (fun pre ->
      let links =
        Printf.sprintf "%d: used=%b next=%d prev=%d" pre (View.is_used v pre)
          (View.next_used v pre) (View.prev_used v pre)
      in
      if not (View.is_used v pre) then links
      else
        let node = View.read_cell v Up.Cnode (View.pos_of_pre v pre) in
        Printf.sprintf "%s size=%d level=%d kind=%s name=%d node=%d pos=%d attrs=[%s]"
          links (View.size v pre) (View.level v pre)
          (Core.Kind.to_string (View.kind v pre))
          (View.name_id v pre) node (View.node_pos_get v node)
          (String.concat ","
             (List.map
                (fun (q, x) -> Xml.Qname.to_string q ^ "=" ^ x)
                (View.attributes v pre))))

(* The cells a run carries, one line per slot of the extent: through
   [View.fold_runs], and through the per-node accessors. A used slot's size
   is left out: a staged view adds its pending deltas per node only. *)
let slot_line pre ~level ~size ~kind ~name =
  if level = Column.Varray.null then Printf.sprintf "%d: free %d" pre size
  else Printf.sprintf "%d: level=%d kind=%d name=%d" pre level kind name

let run_dump v =
  List.rev
    (View.fold_runs v ~lo:0 ~hi:(View.extent v) ~init:[]
       (fun acc (r : Core.Storage_intf.run) ->
         let acc = ref acc in
         for i = r.phys to r.phys + r.len - 1 do
           acc :=
             slot_line (Core.Storage_intf.run_pre r i) ~level:r.level.(i)
               ~size:r.size.(i) ~kind:r.kind.(i) ~name:r.name.(i)
             :: !acc
         done;
         !acc))

let node_dump v =
  List.init (View.extent v) (fun pre ->
      let level = View.level v pre in
      if level = Column.Varray.null then
        slot_line pre ~level ~size:(View.size v pre) ~kind:0 ~name:0
      else
        slot_line pre ~level ~size:0
          ~kind:(Core.Kind.to_int (View.kind v pre))
          ~name:(View.name_id v pre))

let overtaken_runs () = counter_value "mvcc.overtaken_runs" []

(* The run dump of a view against its per-node dump (and against [expect],
   an earlier run dump of the same snapshot, when given). *)
let check_runs ?expect what v =
  let runs = run_dump v in
  let diff a b = List.find_opt (fun (x, y) -> x <> y) (List.combine a b) in
  let nodes = node_dump v in
  (match diff runs nodes with
  | None -> ()
  | Some (a, b) ->
    QCheck2.Test.fail_reportf "%s: runs differ from nodes\nruns:  %s\nnodes: %s" what a b);
  match Option.bind expect (diff runs) with
  | None -> runs
  | Some (a, b) ->
    QCheck2.Test.fail_reportf "%s: runs moved\nnow:    %s\nbefore: %s" what a b

let tombstones st = Up.attr_table_len st - Up.attr_live_count st

(* How often the property's commits did what the fast path must survive:
   page splices, ancestor size deltas, attribute removals. *)
let splices = ref 0 and size_deltas = ref 0 and attr_removals = ref 0

(* The fast path against the fallback, by value: a snapshot dumped while
   current, then again through the same view after 1-5 random commits have
   overtaken it, must not move. *)
let check_overtaken (d, scripts) =
  let db = Db.create ~page_bits:4 ~fill:0.9 d in
  let st = Db.store db in
  Db.get_exn
    (Db.read_txn db (fun s ->
         let v = Session.view s in
         let vs = Option.get (View.snapshot_version v) in
         let first = dump v in
         let first_runs = check_runs "current" v in
         let pages = Up.npages st and nodes = Up.node_count st in
         let dead = tombstones st in
         List.iter
           (fun cmds ->
             ignore
               (Db.write_txn db (fun w ->
                    Core.Xupdate.apply (Session.view w) cmds)))
           scripts;
         if Up.npages st > pages then incr splices;
         if Up.node_count st <> nodes then incr size_deltas;
         if tombstones st > dead then incr attr_removals;
         let c0 = overtaken () in
         let second = dump v in
         let moved = overtaken () > c0 in
         if Version.is_current vs = moved then
           QCheck2.Test.fail_reportf "current=%b but overtaken reads moved=%b"
             (Version.is_current vs) moved;
         let r0 = overtaken_runs () in
         ignore (check_runs ~expect:first_runs "overtaken" v);
         if Version.is_current vs = (overtaken_runs () > r0) then
           QCheck2.Test.fail_reportf "current=%b but overtaken runs moved=%b"
             (Version.is_current vs) (overtaken_runs () > r0);
         match List.find_opt (fun (a, b) -> a <> b) (List.combine first second) with
         | None -> true
         | Some (a, b) ->
           QCheck2.Test.fail_reportf "snapshot moved\nbefore: %s\nafter:  %s" a b))

let gen_overtaken_case =
  let open QCheck2.Gen in
  let* d = Testsupport.gen_doc in
  let* scripts = list_size (int_range 1 5) Testsupport.gen_cmds in
  return (d, scripts)

let print_overtaken_case (d, scripts) =
  Printf.sprintf "commits: %s\ndoc: %s"
    (String.concat " | "
       (List.map
          (fun cmds -> String.concat " ; " (List.map Testsupport.show_command cmds))
          scripts))
    (Testsupport.print_doc d)

let prop_overtaken =
  QCheck2.Test.make ~name:"overtaken snapshot reads = current snapshot reads"
    ~count:1000 ~print:print_overtaken_case gen_overtaken_case check_overtaken

(* The property, then a check that its commits exercised every kind of
   change the fallback must resolve. *)
let overtaken_case =
  let name, speed, run = Testsupport.qcheck_case prop_overtaken in
  ( name,
    speed,
    fun () ->
      run ();
      List.iter
        (fun (what, n) ->
          Alcotest.(check bool) (what ^ " covered") true (!n > 0))
        [ ("page splices", splices);
          ("size deltas", size_deltas);
          ("attribute removals", attr_removals) ] )

(* The staged mirror: a write transaction renames the root (copying the
   root's page), then 1-5 random commits overtake its snapshot. Its reads of
   every page it did not write equal a snapshot view's reads of its pinned
   version. Its runs equal its per-node reads on every page, before the
   commits, after them, and after it splices fresh pages in. *)
let staged_overtaken = ref 0 and staged_spliced = ref 0

let check_staged_reads (d, scripts) =
  let m = Txn.manager (Up.of_dom ~page_bits:4 ~fill:0.9 d) in
  (* the reader and the writer pin the same version *)
  Txn.read m (fun snap ->
      let t = Txn.begin_write m in
      let v = Txn.view t in
      U.rename_element v ~pre:(View.root_pre v) (Xml.Qname.make "renamed");
      ignore (check_runs "staged" v);
      List.iter
        (fun cmds ->
          try Txn.with_write m (fun w -> ignore (Core.Xupdate.apply w cmds))
          with Core.Xupdate.Apply_error _ | U.Update_error _ -> ())
        scripts;
      if not (Version.is_current (Option.get (View.snapshot_version snap))) then
        incr staged_overtaken;
      let written = View.write_set v in
      let unwritten lines =
        List.filteri
          (fun pre _ ->
            not (List.mem (View.pos_of_pre v pre lsr View.page_bits v) written))
          lines
      in
      let staged = unwritten (dump v) and snapshot = unwritten (dump snap) in
      ignore (check_runs "staged, overtaken" v);
      (* 20 children overflow the root's page: fresh pages are spliced in *)
      let pages = View.npages v in
      U.insert v (U.First_child (View.root_pre v))
        (List.init 20 (fun _ -> Xml.Dom.element "fresh"));
      if View.npages v > pages then incr staged_spliced;
      ignore (check_runs "staged, spliced" v);
      Txn.abort t;
      match List.find_opt (fun (a, b) -> a <> b) (List.combine staged snapshot) with
      | None -> true
      | Some (a, b) ->
        QCheck2.Test.fail_reportf "staged read moved\nstaged:   %s\nsnapshot: %s" a b)

let prop_staged_reads =
  QCheck2.Test.make ~name:"staged reads = snapshot reads"
    ~count:500 ~print:print_overtaken_case gen_overtaken_case check_staged_reads

let staged_reads_case =
  let name, speed, run = Testsupport.qcheck_case prop_staged_reads in
  ( name,
    speed,
    fun () ->
      run ();
      Alcotest.(check bool) "commits overtook the staged snapshot" true
        (!staged_overtaken > 0);
      Alcotest.(check bool) "staged views spliced pages" true (!staged_spliced > 0) )

(* ------------------------------------------------------- lock-free reads -- *)

(* A burst of queries and read transactions never begins a write
   transaction, so it can neither conflict nor make a writer conflict. *)
let test_reads_take_no_locks () =
  let db = Db.of_xml "<root><left><l/></left><right><r/></right></root>" in
  let before_begins = counter_value "txn.begins" [] in
  let before_conflicts = counter_value "txn.conflicts" [] in
  for _ = 1 to 50 do
    ignore (Db.query db "//l");
    Db.get_exn (Db.read_txn db (fun s ->
        ignore (Db.get_exn (Session.count s "/root/right/r"));
        ignore (Session.serialize s)))
  done;
  Alcotest.(check int) "no write transaction on read path" before_begins
    (counter_value "txn.begins" []);
  Alcotest.(check int) "no conflict on read path" before_conflicts
    (counter_value "txn.conflicts" [])

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
  Alcotest.(check bool) "readers made progress" true
    (Atomic.get snapshots_checked > 0);
  (* 2 writers x commits_target pairs, one <l/> and one <r/> each *)
  Alcotest.(check int) "final invariant" (4 * commits_target)
    (Db.get_exn (Db.query_count db "/root/left/l")
     + Db.get_exn (Db.query_count db "/root/right/r"));
  check_integrity db

(* ------------------------------------------------- checkpoint + truncate -- *)

let test_checkpoint_truncates_wal () =
  let dir = temp_dir () in
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
  | exception Failure m -> Alcotest.(check string) "escaped" "client bails" m
  | Ok _ -> Alcotest.fail "expected the session to fail"
  | Error e -> Alcotest.failf "unexpected: %s" (Db.Error.to_string e));
  Alcotest.(check int) "aborted write rolled back" 0
    (Db.get_exn (Db.query_count db "/root/c"));
  check_integrity db

(* A scan on a pinned snapshot is held between two runs (the [view.run]
   failpoint) while a commit rewrites a page it has not reached yet: the
   runs after the commit are read again through the version chain, and the
   scan returns the snapshot's answer. *)
let test_scan_overtaken_between_runs () =
  let xml = "<root>" ^ String.concat "" (List.init 64 (fun _ -> "<x/>")) ^ "</root>" in
  let db = Db.of_xml ~page_bits:2 xml in
  let remove_last =
    {|<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
        <xupdate:remove select="/root/x[64]"/>
      </xupdate:modifications>|}
  in
  let r0 = overtaken_runs () in
  let n =
    Db.get_exn
      (Db.read_txn db (fun s ->
           Fault.arm "view.run" ~policy:(Fault.Hit 2) ~action:(Fault.Delay 0.3);
           Fun.protect ~finally:Fault.reset (fun () ->
               let writer =
                 Thread.create
                   (fun () ->
                     Thread.delay 0.1;
                     ignore (update_retry db remove_last))
                   ()
               in
               let n = Db.get_exn (Session.count s "//x") in
               Thread.join writer;
               n)))
  in
  Alcotest.(check int) "the scan returns the snapshot's answer" 64 n;
  Alcotest.(check int) "a fresh snapshot sees the commit" 63
    (Db.get_exn (Db.query_count db "//x"));
  Alcotest.(check bool) "mvcc.overtaken_runs moved" true (overtaken_runs () > r0);
  check_integrity db

(* A `//x` scan folds one run per logical page on a snapshot and one run on
   the read-only schema, and counts each run and its slots once. *)
let test_scan_counters () =
  let xml = "<root>" ^ String.concat "" (List.init 40 (fun _ -> "<x/>")) ^ "</root>" in
  let runs () = counter_value "engine.runs" [] in
  let slots () = counter_value "engine.slots_scanned" [] in
  let path = Xpath.Xpath_parser.parse "//x" in
  let moved f =
    let r0 = runs () and s0 = slots () in
    f ();
    (runs () - r0, slots () - s0)
  in
  let ro = Core.Schema_ro.of_dom (P.parse xml) in
  let module E_ro = Core.Engine.Make (Core.Schema_ro) in
  Alcotest.(check (pair int int)) "read-only: one run over the root's descendants"
    (1, 40) (moved (fun () -> ignore (E_ro.count ro path)));
  let db = Db.of_xml ~page_bits:3 xml in
  Db.get_exn
    (Db.read_txn db (fun s ->
         let v = Session.view s in
         let lo = View.root_pre v + 1 and hi = View.extent v in
         let pages = ((hi - 1) lsr 3) - (lo lsr 3) + 1 in
         Alcotest.(check (pair int int)) "snapshot: one run per page" (pages, hi - lo)
           (moved (fun () -> ignore (Db.get_exn (Session.count s "//x"))))));
  let rendered = Obs.render_prometheus (Obs.snapshot ()) in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " in METRICS") true (contains rendered n))
    [ "engine_runs"; "engine_slots_scanned"; "mvcc_overtaken_runs" ]

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
      "mvcc.versions_reclaimed"; "mvcc.commit_cs_latency"; "mvcc.overtaken_reads";
      "wal.rotations" ]

let () =
  Alcotest.run "mvcc"
    [ ( "snapshots",
        [ Alcotest.test_case "stable across commit" `Quick
            test_snapshot_stable_across_commit;
          Testsupport.qcheck_case prop_snapshot_frozen;
          Alcotest.test_case "current reads take the fast path" `Quick
            test_current_reads_fast;
          overtaken_case;
          staged_reads_case ] );
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
          Alcotest.test_case "metrics" `Quick test_mvcc_metrics ] );
      ( "runs",
        [ Alcotest.test_case "scan overtaken between runs" `Quick
            test_scan_overtaken_between_runs;
          Alcotest.test_case "scan counters" `Quick test_scan_counters ] ) ]
