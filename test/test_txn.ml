(* Transaction protocol tests (Figure 8): isolation, atomicity, commutative
   size deltas, concurrent commits with page splices, deadlock handling. *)

module Dom = Xml.Dom
module P = Xml.Xml_parser
module Up = Core.Schema_up
module View = Core.View
module U = Core.Update
module Txn = Core.Txn
module E = Core.Engine.Make (Core.View)
module Ser = Core.Node_serialize.Make (Core.View)

let doc = Alcotest.testable Dom.pp Dom.equal

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_integrity t =
  match Up.check_integrity t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "integrity: %s" m

let site_mgr ?(page_bits = 3) ?(fill = 0.75) () =
  let base = Up.of_dom ~page_bits ~fill Testsupport.small_doc in
  Txn.manager base

let names v = List.map (E.item_string v) (E.parse_eval v "/site/people/person/name")

(* Optimistic concurrency: snapshot conflicts are expected under contention;
   clients retry, as ours do here. *)
let rec with_retry ?(tries = 50) m f =
  match Txn.with_write m f with
  | x -> x
  | exception Txn.Aborted _ when tries > 0 ->
    Thread.delay 0.001;
    with_retry ~tries:(tries - 1) m f

let node_pre v path =
  match E.parse_eval v path with
  | [ E.Node pre ] -> pre
  | _ -> Alcotest.failf "expected one node for %s" path

(* ----------------------------------------------------------- lock manager -- *)

let test_lock_basics () =
  let lk = Core.Lock.create ~timeout_s:0.1 () in
  Core.Lock.acquire_page lk ~owner:1 ~page:0 ~write:false;
  Core.Lock.acquire_page lk ~owner:2 ~page:0 ~write:false;
  Alcotest.(check bool) "shared readers" true
    (Core.Lock.holds lk ~owner:1 ~page:0 = `Read
    && Core.Lock.holds lk ~owner:2 ~page:0 = `Read);
  (* writer blocked by two readers -> timeout *)
  (match Core.Lock.acquire_page lk ~owner:3 ~page:0 ~write:true with
  | () -> Alcotest.fail "expected deadlock timeout"
  | exception Core.Lock.Would_deadlock { owner = 3; page = 0 } -> ());
  Core.Lock.release_all lk ~owner:2;
  (* sole reader upgrades *)
  Core.Lock.acquire_page lk ~owner:1 ~page:0 ~write:true;
  Alcotest.(check bool) "upgraded" true (Core.Lock.holds lk ~owner:1 ~page:0 = `Write);
  (* re-entrant *)
  Core.Lock.acquire_page lk ~owner:1 ~page:0 ~write:false;
  Core.Lock.release_all lk ~owner:1;
  Alcotest.(check bool) "released" true (Core.Lock.holds lk ~owner:1 ~page:0 = `None)

let test_page_lock_released_unblocks () =
  let lk = Core.Lock.create ~timeout_s:5.0 () in
  Core.Lock.acquire_page lk ~owner:1 ~page:7 ~write:true;
  let acquired = ref false in
  let waiter =
    Thread.create
      (fun () ->
        Core.Lock.acquire_page lk ~owner:2 ~page:7 ~write:true;
        acquired := true)
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "still blocked" false !acquired;
  Core.Lock.release_all lk ~owner:1;
  Thread.join waiter;
  Alcotest.(check bool) "unblocked by release" true !acquired;
  Alcotest.(check (list int)) "waiter holds it" [ 7 ]
    (Core.Lock.locked_pages lk ~owner:2)

(* -------------------------------------------------------------- isolation -- *)

let test_isolation_uncommitted_invisible () =
  let m = site_mgr () in
  let t = Txn.begin_write m in
  U.insert (Txn.view t) (U.Last_child (node_pre (Txn.view t) "/site/people"))
    (P.parse_fragment "<person><name>Hidden</name></person>");
  (* the staged view sees it *)
  Alcotest.(check int) "txn sees own insert" 4 (List.length (names (Txn.view t)));
  (* a concurrent reader does not *)
  Txn.read m (fun v ->
      Alcotest.(check int) "reader sees old state" 3 (List.length (names v)));
  Txn.commit t;
  Txn.read m (fun v ->
      Alcotest.(check int) "visible after commit" 4 (List.length (names v)));
  check_integrity (Txn.store m)

let test_abort_leaves_base_untouched () =
  let m = site_mgr () in
  let before = Txn.read m (fun v -> Ser.to_dom v) in
  let node_ids_before = Up.node_ids (Txn.store m) in
  let t = Txn.begin_write m in
  let v = Txn.view t in
  U.insert v (U.Last_child (node_pre v "/site/people")) (P.parse_fragment "<person/>");
  U.delete v ~pre:(node_pre v "/site/items/item[1]");
  Txn.abort t;
  Alcotest.check doc "unchanged" before (Txn.read m (fun v -> Ser.to_dom v));
  check_integrity (Txn.store m);
  (* fresh node ids returned to the allocator: next alloc stays in range *)
  let id = Up.fresh_node_id (Txn.store m) in
  Alcotest.(check bool) "no id leak" true (id <= node_ids_before);
  Up.free_node_id (Txn.store m) id

let test_commit_twice_and_use_after () =
  let m = site_mgr () in
  let t = Txn.begin_write m in
  Txn.commit t;
  Alcotest.check_raises "commit twice"
    (Invalid_argument "Txn.commit: transaction already committed") (fun () ->
      Txn.commit t);
  let t2 = Txn.begin_write m in
  Txn.abort t2;
  Alcotest.check_raises "commit after abort"
    (Invalid_argument "Txn.commit: transaction already aborted") (fun () ->
      Txn.commit t2)

let test_validation_aborts () =
  let m = site_mgr () in
  let schema =
    Core.Validate.of_rules
      [ ("people", Core.Validate.rule ~content:(Core.Validate.Children_of [ "person" ]) ()) ]
  in
  (match
     Txn.with_write m ~validate:(Core.Validate.checker schema) (fun v ->
         U.insert v (U.Last_child (node_pre v "/site/people"))
           (P.parse_fragment "<intruder/>"))
   with
  | () -> Alcotest.fail "expected abort"
  | exception Txn.Aborted msg ->
    Alcotest.(check bool) "mentions intruder" true (contains msg "intruder"));
  Txn.read m (fun v ->
      Alcotest.(check int) "rolled back" 0 (List.length (E.parse_eval v "//intruder")));
  check_integrity (Txn.store m)

(* --------------------------------------------- staged page-overflow commit -- *)

let test_overflow_insert_in_txn () =
  let base = Up.of_dom ~page_bits:3 ~fill:0.875 Testsupport.paper_doc in
  let m = Txn.manager base in
  let pages_before = Up.npages base in
  Txn.with_write m (fun v ->
      let g = node_pre v "//g" in
      U.insert v (U.Last_child g) (P.parse_fragment "<k><l/><m/></k>");
      (* own view already sees the splice *)
      Alcotest.(check int) "txn sees new nodes" 3
        (List.length (E.parse_eval v "//g/descendant::*")));
  Alcotest.(check int) "page appended at commit" (pages_before + 1) (Up.npages base);
  check_integrity base;
  Txn.read m (fun v ->
      Alcotest.(check int) "size a" 12 (View.size v (View.root_pre v)))

(* ------------------------------------------------- commutative size deltas -- *)

let test_sequential_deltas_compose () =
  let m = site_mgr () in
  let root_size0 = Txn.read m (fun v -> View.size v (View.root_pre v)) in
  Txn.with_write m (fun v ->
      U.insert v (U.Last_child (node_pre v "/site/people/person[1]"))
        (P.parse_fragment "<hobby>chess</hobby>"));
  Txn.with_write m (fun v ->
      U.delete v ~pre:(node_pre v "/site/items/item[2]"));
  let expected = root_size0 + 2 (* +hobby+text *) - 5 (* item1: item,name,text,price,text *) in
  Txn.read m (fun v ->
      Alcotest.(check int) "root size delta composition" expected
        (View.size v (View.root_pre v)));
  check_integrity (Txn.store m)

let test_concurrent_disjoint_writers () =
  (* Two writers in different logical pages, both updating the root's size
     through deltas — the paper's no-root-lock scenario. page_bits=2 ->
     people and items live on different pages. *)
  let m = site_mgr ~page_bits:2 ~fill:0.75 () in
  let base = Txn.store m in
  let root_size0 = Txn.read m (fun v -> View.size v (View.root_pre v)) in
  let barrier = Mutex.create () in
  let started = Condition.create () in
  let n_started = ref 0 in
  let wait_both () =
    Mutex.lock barrier;
    incr n_started;
    Condition.broadcast started;
    while !n_started < 2 do
      Condition.wait started barrier
    done;
    Mutex.unlock barrier
  in
  let errors = Mutex.create () and errs = ref [] in
  let run name f =
    Thread.create
      (fun () ->
        try f ()
        with e ->
          Mutex.lock errors;
          errs := (name, Printexc.to_string e) :: !errs;
          Mutex.unlock errors)
      ()
  in
  let t1 =
    run "writer1" (fun () ->
        with_retry m (fun v ->
            wait_both ();
            U.insert v (U.Last_child (node_pre v "/site/people/person[1]"))
              (P.parse_fragment "<hobby>go</hobby>")))
  in
  let t2 =
    run "writer2" (fun () ->
        with_retry m (fun v ->
            wait_both ();
            U.insert v (U.Last_child (node_pre v "/site/items/item[2]"))
              (P.parse_fragment "<stock>7</stock>")))
  in
  Thread.join t1;
  Thread.join t2;
  (match !errs with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "%s failed: %s" n e);
  check_integrity base;
  Txn.read m (fun v ->
      Alcotest.(check int) "root size includes both deltas" (root_size0 + 4)
        (View.size v (View.root_pre v));
      Alcotest.(check int) "both inserts present" 1
        (List.length (E.parse_eval v "//hobby"));
      Alcotest.(check int) "stock present" 1 (List.length (E.parse_eval v "//stock")))

let test_concurrent_overflow_splices () =
  (* Both writers overflow their pages, so both stage fresh pages: the
     commit-time renumbering path (shift > 0 for the second committer). *)
  let base =
    Up.of_dom ~page_bits:2 ~fill:1.0
      (P.parse "<r><a><a1/><a2/><a3/></a><b><b1/><b2/><b3/></b></r>")
  in
  let m = Txn.manager base in
  let barrier = Mutex.create () and started = Condition.create () and n = ref 0 in
  let wait_both () =
    Mutex.lock barrier;
    incr n;
    Condition.broadcast started;
    while !n < 2 do
      Condition.wait started barrier
    done;
    Mutex.unlock barrier
  in
  let errs = ref [] in
  let run name target frag =
    Thread.create
      (fun () ->
        try
          with_retry m (fun v ->
              wait_both ();
              U.insert v (U.Last_child (node_pre v target)) (P.parse_fragment frag))
        with e -> errs := (name, Printexc.to_string e) :: !errs)
      ()
  in
  let t1 = run "w1" "/r/a/a1" "<x1/><x2/><x3/><x4/><x5/><x6/>" in
  let t2 = run "w2" "/r/b/b1" "<y1/><y2/><y3/><y4/><y5/><y6/>" in
  Thread.join t1;
  Thread.join t2;
  (match !errs with
  | [] -> ()
  | (nm, e) :: _ -> Alcotest.failf "%s failed: %s" nm e);
  check_integrity base;
  Txn.read m (fun v ->
      Alcotest.(check int) "all x present" 6 (List.length (E.parse_eval v "//a1/*"));
      Alcotest.(check int) "all y present" 6 (List.length (E.parse_eval v "//b1/*"));
      Alcotest.(check int) "root size" 20 (View.size v (View.root_pre v)))

let test_conflicting_writers_deadlock_aborts () =
  (* Re-resolve the live instruments by name (registration is idempotent) so
     the deadlock below is visible as counter deltas, not just as control
     flow. *)
  let c_deadlock = Obs.counter "lock.would_deadlock" in
  let c_rollback = Obs.counter "txn.rollbacks" in
  let dl0 = Obs.value c_deadlock and rb0 = Obs.value c_rollback in
  let base = Up.of_dom ~page_bits:3 ~fill:0.6 Testsupport.small_doc in
  let m = Txn.manager base in
  (* lower the lock timeout by rebuilding the manager *)
  let m = if true then Txn.manager ~lock_timeout_s:0.15 (Txn.store m) else m in
  let t1 = Txn.begin_write m in
  let v1 = Txn.view t1 in
  U.insert v1 (U.Last_child (node_pre v1 "/site/people/person[1]"))
    (P.parse_fragment "<note/>");
  (* second writer needs the same page -> must time out *)
  let t2 = Txn.begin_write m in
  let v2 = Txn.view t2 in
  (match
     U.insert v2 (U.Last_child (node_pre v2 "/site/people/person[2]"))
       (P.parse_fragment "<note/>")
   with
  | () -> Alcotest.fail "expected lock conflict"
  | exception Core.Lock.Would_deadlock _ -> Txn.abort t2);
  Txn.commit t1;
  check_integrity base;
  Txn.read m (fun v ->
      Alcotest.(check int) "only t1's insert" 1 (List.length (E.parse_eval v "//note")));
  Alcotest.(check int) "lock.would_deadlock ticked" (dl0 + 1) (Obs.value c_deadlock);
  Alcotest.(check int) "aborted txn counted" (rb0 + 1) (Obs.value c_rollback)

let test_snapshot_conflict_detected () =
  (* First-committer-wins: T1 snapshots, T2 commits a change affecting a page
     T1 then touches (the root page gets T2's commutative size delta) -> T1
     must see a conflict rather than a frankenstein view. *)
  let base =
    Up.of_dom ~page_bits:3 ~fill:1.0
      (P.parse "<root><a><c1/><c2/><c3/><c4/><c5/><c6/></a><b><q1/><q2/></b></root>")
  in
  let m = Txn.manager base in
  (* pre of /root/a/c1, resolved outside any write txn (it will not shift) *)
  let c1 = Txn.read m (fun v -> node_pre v "/root/a/c1") in
  let t1 = Txn.begin_write m in
  let v1 = Txn.view t1 in
  Alcotest.(check int) "t1 reads page 0" 2 (View.level v1 c1);
  (* T2 inserts under b (write-locks b's page only) and commits: the root
     size delta stamps page 0 without ever locking it *)
  Txn.with_write m (fun v ->
      U.insert v (U.Last_child (node_pre v "/root/b")) (P.parse_fragment "<q3/>"));
  (* T1 touches page 0 again: its snapshot is stale *)
  (match View.level v1 c1 with
  | _ -> Alcotest.fail "expected snapshot conflict"
  | exception Txn.Conflict { page = 0; _ } -> ());
  Txn.abort t1;
  check_integrity base;
  (* a fresh transaction (new snapshot) sees both changes and proceeds *)
  Txn.with_write m (fun v ->
      U.insert v (U.Last_child (node_pre v "/root/a")) (P.parse_fragment "<c7/>"));
  Txn.read m (fun v ->
      Alcotest.(check int) "final root size" 12 (View.size v (View.root_pre v)))

(* --------------------------------------------------------- mixed stress -- *)

let test_stress_concurrent_writers_and_readers () =
  (* 4 writers append under 4 disjoint subtrees, readers scan all along;
     everything must commit (disjoint pages) and the final document must
     contain every insert. *)
  let children = List.init 4 (fun i -> Dom.element (Printf.sprintf "zone%d" i)) in
  let d = Dom.doc { Dom.name = Xml.Qname.make "r"; attrs = []; children } in
  let base = Up.of_dom ~page_bits:4 ~fill:0.5 d in
  let m = Txn.manager ~lock_timeout_s:5.0 base in
  let errs = ref [] in
  let writer zone =
    Thread.create
      (fun () ->
        try
          for i = 1 to 10 do
            with_retry m (fun v ->
                let z = node_pre v (Printf.sprintf "/r/zone%d" zone) in
                U.insert v (U.Last_child z)
                  (P.parse_fragment (Printf.sprintf "<entry n='%d'/>" i)))
          done
        with e -> errs := Printexc.to_string e :: !errs)
      ()
  in
  let reader () =
    Thread.create
      (fun () ->
        try
          for _ = 1 to 20 do
            Txn.read m (fun v ->
                (* document always well-formed from a reader's seat *)
                let total = E.count v (Xpath.Xpath_parser.parse "//entry") in
                if total < 0 then failwith "impossible")
          done
        with e -> errs := Printexc.to_string e :: !errs)
      ()
  in
  let ws = List.init 4 writer in
  let rs = List.init 2 (fun _ -> reader ()) in
  List.iter Thread.join ws;
  List.iter Thread.join rs;
  (match !errs with [] -> () | e :: _ -> Alcotest.failf "thread failed: %s" e);
  check_integrity base;
  Txn.read m (fun v ->
      Alcotest.(check int) "all 40 entries" 40
        (List.length (E.parse_eval v "//entry")))

let () =
  Alcotest.run "txn"
    [ ( "locks",
        [ Alcotest.test_case "page lock basics" `Quick test_lock_basics;
          Alcotest.test_case "release unblocks waiter" `Quick
            test_page_lock_released_unblocks ] );
      ( "acid",
        [ Alcotest.test_case "uncommitted invisible" `Quick test_isolation_uncommitted_invisible;
          Alcotest.test_case "abort rolls back" `Quick test_abort_leaves_base_untouched;
          Alcotest.test_case "double commit guarded" `Quick test_commit_twice_and_use_after;
          Alcotest.test_case "validation aborts" `Quick test_validation_aborts;
          Alcotest.test_case "overflow insert in txn" `Quick test_overflow_insert_in_txn ] );
      ( "concurrency",
        [ Alcotest.test_case "sequential deltas compose" `Quick test_sequential_deltas_compose;
          Alcotest.test_case "disjoint writers, no root lock" `Quick
            test_concurrent_disjoint_writers;
          Alcotest.test_case "concurrent page splices renumber" `Quick
            test_concurrent_overflow_splices;
          Alcotest.test_case "same-page conflict times out" `Quick
            test_conflicting_writers_deadlock_aborts;
          Alcotest.test_case "snapshot conflict detected" `Quick
            test_snapshot_conflict_detected;
          Alcotest.test_case "stress: 4 writers + readers" `Quick
            test_stress_concurrent_writers_and_readers ] ) ]
