(* Transaction protocol tests (Figure 8): isolation, atomicity, commutative
   size deltas, concurrent commits with page splices, first-committer-wins
   validation at touch time and at commit. *)

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

(* A barrier for [n] threads: each caller blocks until all have arrived. *)
let barrier n =
  let mu = Mutex.create () and cond = Condition.create () and arrived = ref 0 in
  fun () ->
    Mutex.lock mu;
    incr arrived;
    Condition.broadcast cond;
    while !arrived < n do
      Condition.wait cond mu
    done;
    Mutex.unlock mu

(* Run every body on its own thread; fail on the first exception raised. *)
let run_threads bodies =
  let mu = Mutex.create () and errs = ref [] in
  let guard f () =
    try f ()
    with e -> Mutex.protect mu (fun () -> errs := Printexc.to_string e :: !errs)
  in
  List.iter Thread.join (List.map (fun f -> Thread.create (guard f) ()) bodies);
  match !errs with [] -> () | e :: _ -> Alcotest.failf "thread failed: %s" e

(* One writer thread per (target, fragment), each inserting its fragment as
   the target's last child; all stage at once (retrying on conflict). *)
let inserts_together m inserts =
  let all_staging = barrier (List.length inserts) in
  run_threads
    (List.map
       (fun (target, frag) () ->
         with_retry m (fun v ->
             all_staging ();
             U.insert v (U.Last_child (node_pre v target)) (P.parse_fragment frag)))
       inserts)

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
  inserts_together m
    [ ("/site/people/person[1]", "<hobby>go</hobby>");
      ("/site/items/item[2]", "<stock>7</stock>") ];
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
  inserts_together m
    [ ("/r/a/a1", "<x1/><x2/><x3/><x4/><x5/><x6/>");
      ("/r/b/b1", "<y1/><y2/><y3/><y4/><y5/><y6/>") ];
  check_integrity base;
  Txn.read m (fun v ->
      Alcotest.(check int) "all x present" 6 (List.length (E.parse_eval v "//a1/*"));
      Alcotest.(check int) "all y present" 6 (List.length (E.parse_eval v "//b1/*"));
      Alcotest.(check int) "root size" 20 (View.size v (View.root_pre v)))

(* ------------------------------------------------ commit-time validation -- *)

let serialize m = Txn.read m (fun v -> Xml.Xml_serialize.to_string (Ser.to_dom v))

let expect_conflict what commit =
  match commit () with
  | () -> Alcotest.failf "%s: expected Aborted" what
  | exception Txn.Aborted msg ->
    if not (contains msg "snapshot conflict") then
      Alcotest.failf "%s: unexpected abort %S" what msg

let insert_note path v =
  U.insert v (U.Last_child (node_pre v path)) (P.parse_fragment "<note/>")

(* Stage [first] and [second] from one snapshot, commit them in that order:
   the second committer must lose, and the store must equal the store
   after [first] alone. *)
let check_second_loses what first second =
  let oracle = site_mgr () in
  Txn.with_write oracle first;
  let m = site_mgr () in
  let t1 = Txn.begin_write m in
  first (Txn.view t1);
  let t2 = Txn.begin_write m in
  second (Txn.view t2);
  Txn.commit t1;
  expect_conflict what (fun () -> Txn.commit t2);
  check_integrity (Txn.store m);
  Alcotest.(check string) (what ^ ": store = winner alone") (serialize oracle)
    (serialize m)

let test_same_page_second_committer_aborts () =
  let count name = Obs.value (Obs.counter name) in
  let cf0 = count "txn.conflicts" and rb0 = count "txn.rollbacks" in
  (* person[1]'s and person[2]'s insert points share a page (6 used slots
     per page): the writers never wait on each other, the loser aborts *)
  check_second_loses "same-page writers"
    (insert_note "/site/people/person[1]")
    (insert_note "/site/people/person[2]");
  Alcotest.(check (pair int int)) "one conflict, one rollback" (cf0 + 1, rb0 + 1)
    (count "txn.conflicts", count "txn.rollbacks")

let test_delete_vs_insert_under () =
  let target = "/site/items/item[1]" in
  let delete v = U.delete v ~pre:(node_pre v target) in
  let insert_under v =
    U.insert v (U.Last_child (node_pre v target))
      (P.parse_fragment "<stock>1</stock>")
  in
  check_second_loses "insert under a deleted node" delete insert_under;
  check_second_loses "delete of a grown node" insert_under delete

(* Rule (b) on its own: a transaction frees a pre-existing node id without
   rewriting any page (the node-identity half of a delete), and a commit
   inserts under that node meanwhile. Only the delta stamp on the node's page
   records the insert, and freeing the id would orphan it. *)
let test_freed_node_under_newer_delta () =
  let m = site_mgr () in
  let path = "/site/items/item[2]" in
  let item =
    Txn.read m (fun v -> Up.node_at (Txn.store m) ~pre:(node_pre v path))
  in
  let t = Txn.begin_write m in
  View.free_node_id (Txn.view t) item;
  Txn.with_write m (insert_note path);
  let after_insert = serialize m in
  expect_conflict "free after insert under the node" (fun () -> Txn.commit t);
  check_integrity (Txn.store m);
  Alcotest.(check string) "store unchanged by the loser" after_insert (serialize m)

(* Two writers set the same attribute from one snapshot. Neither rewrites a
   cell, so only the bulk stamp the first commit leaves on the owner's page
   tells the second that the attribute rows it read are stale; committing
   both would serialise a duplicate attribute. *)
let test_attribute_race () =
  let m = site_mgr () in
  let stage value =
    let t = Txn.begin_write m in
    let v = Txn.view t in
    U.set_attribute v ~pre:(node_pre v "/site/people/person[2]")
      (Xml.Qname.make "flag") value;
    t
  in
  let t1 = stage "one" in
  let t2 = stage "two" in
  Txn.commit t1;
  expect_conflict "second set_attribute" (fun () -> Txn.commit t2);
  check_integrity (Txn.store m);
  Txn.read m (fun v ->
      Alcotest.(check (list string)) "one flag, the winner's" [ "one" ]
        (List.map (E.item_string v)
           (E.parse_eval v "/site/people/person[2]/@flag")))

(* A vacuum relocates every tuple: a transaction staged before it must not
   commit its stale positions, whether the vacuum grew the store (fill 0.3)
   or shrank it (fill 1.0). *)
let check_vacuum_aborts m stage fill =
  let t = Txn.begin_write m in
  stage (Txn.view t);
  let before = serialize m in
  Txn.vacuum ~fill m;
  expect_conflict "commit across a vacuum" (fun () -> Txn.commit t);
  check_integrity (Txn.store m);
  Alcotest.(check string) "store unchanged" before (serialize m)

let test_vacuum_before_commit fill () =
  check_vacuum_aborts (site_mgr ()) (insert_note "/site/people") fill

(* Rule (c) on its own: the transaction renames the last element, found
   through its node id, so it touches only the last page; the shrinking
   vacuum drops that page, and no page stamp can report the relocation. *)
let test_vacuum_drops_touched_page () =
  let m = site_mgr ~fill:0.5 () in
  let last = "/site/items/item[2]/price" in
  let node =
    Txn.read m (fun v -> Up.node_at (Txn.store m) ~pre:(node_pre v last))
  in
  let rename v =
    let pre = View.pre_of_pos v (View.node_pos_get v node) in
    U.rename_element v ~pre (Xml.Qname.make "cost")
  in
  check_vacuum_aborts m rename 1.0

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
  (* T2 inserts under b (rewriting b's page only) and commits: the root
     size delta stamps page 0 without T2 ever touching it *)
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

(* A transaction copies each base page it changes; a size delta a
   concurrent commit lands on that page after the copy must survive the
   commit of the copy. A renames c1 (copying page 0), B inserts under b
   (rewriting page 1 only; the root's size delta lands on page 0), then A
   commits: the root keeps B's insert. *)
let test_copied_page_keeps_concurrent_delta () =
  let base =
    Up.of_dom ~page_bits:3 ~fill:1.0
      (P.parse "<root><a><c1/><c2/><c3/><c4/><c5/><c6/></a><b><q1/><q2/></b></root>")
  in
  let m = Txn.manager base in
  (* resolved outside A, whose reads must stay on page 0 *)
  let c1 = Txn.read m (fun v -> node_pre v "/root/a/c1") in
  let a = Txn.begin_write m in
  U.rename_element (Txn.view a) ~pre:c1 (Xml.Qname.make "d1");
  Txn.with_write m (fun v ->
      U.insert v (U.Last_child (node_pre v "/root/b")) (P.parse_fragment "<q3/>"));
  Txn.commit a;
  check_integrity base;
  Txn.read m (fun v ->
      Alcotest.(check int) "root size keeps the delta" 11
        (View.size v (View.root_pre v));
      Alcotest.(check int) "rename committed" 1
        (List.length (E.parse_eval v "/root/a/d1")))

(* The WAL carries only cells a commit changes: rewriting a cell's current
   value, or changing it and changing it back, logs nothing. *)
let test_unchanged_cells_not_logged () =
  let path = Filename.temp_file "txn" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let wal = Core.Wal.open_log path in
      let base = Up.of_dom ~page_bits:3 (P.parse "<root><a/><b/></root>") in
      let m = Txn.manager ~wal base in
      let name_pos v = View.pos_of_pre v (node_pre v "/root/a") in
      Txn.with_write m (fun v ->
          let pos = name_pos v in
          View.write_cell v Up.Cname pos (View.read_cell v Up.Cname pos));
      Txn.with_write m (fun v ->
          let pos = name_pos v in
          let x = View.read_cell v Up.Cname pos in
          View.write_cell v Up.Cname pos (x + 1);
          View.write_cell v Up.Cname pos x);
      Txn.with_write m (fun v ->
          U.rename_element v ~pre:(node_pre v "/root/a") (Xml.Qname.make "c"));
      Core.Wal.close wal;
      let logged = ref [] in
      ignore
        (Core.Wal.replay path (fun r ->
             logged := List.length r.Core.Wal.cells :: !logged));
      Alcotest.(check (list int)) "cells logged per commit" [ 0; 0; 1 ]
        (List.rev !logged))

(* Figure 7a: an insert fills the nearest free slots after its point. Only
   the used tuples between the point and that hole move, and the commit
   logs node/pos for the new nodes and those movers alone. *)
let test_window_insert_moves_only_the_window () =
  let path = Filename.temp_file "txn" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let wal = Core.Wal.open_log path in
      let kids = String.concat "" (List.init 15 (Printf.sprintf "<a%d/>")) in
      let base = Up.of_dom ~page_bits:4 ~fill:1.0 (P.parse ("<r>" ^ kids ^ "</r>")) in
      Alcotest.(check int) "one full page" 1 (Up.npages base);
      let m = Txn.manager ~wal base in
      (* a hole before the point (a1) and a two-slot hole five used slots
         after it (a10, a11) *)
      Txn.with_write m (fun v ->
          List.iter
            (fun n -> U.delete v ~pre:(node_pre v ("/r/" ^ n)))
            [ "a1"; "a10"; "a11" ]);
      let d = View.direct base in
      let node_of i = Up.node_at base ~pre:(node_pre d (Printf.sprintf "/r/a%d" i)) in
      let kept = [ 0; 2; 3; 4; 5; 6; 7; 8; 9; 12; 13; 14 ] in
      let pos_before = List.map (fun i -> (i, Up.node_pos_get base (node_of i))) kept in
      U.reset_costs ();
      Txn.with_write m (fun v ->
          U.insert v (U.After (node_pre v "/r/a4")) (P.parse_fragment "<n1/><n2/>"));
      Core.Wal.close wal;
      check_integrity base;
      Alcotest.(check int) "no new page" 1 (Up.npages base);
      Alcotest.(check int) "only a5..a9 moved" 5 U.costs.U.moved_tuples;
      List.iter
        (fun (i, pos) ->
          let shift = if i >= 5 && i <= 9 then 2 else 0 in
          Alcotest.(check int)
            (Printf.sprintf "a%d position" i)
            (pos + shift)
            (Up.node_pos_get base (node_of i)))
        pos_before;
      Alcotest.(check (list string)) "document order"
        [ "a0"; "a2"; "a3"; "a4"; "n1"; "n2"; "a5"; "a6"; "a7"; "a8"; "a9";
          "a12"; "a13"; "a14" ]
        (List.map
           (fun pre -> Xml.Qname.to_string (View.qname d pre))
           (List.filter_map
              (function E.Node pre -> Some pre | _ -> None)
              (E.parse_eval d "/r/*")));
      let last = ref None in
      ignore (Core.Wal.replay path (fun r -> last := Some r));
      let logged =
        List.sort compare (List.map fst (Option.get !last).Core.Wal.node_pos)
      in
      let expected =
        List.sort compare
          (List.map (fun n -> Up.node_at base ~pre:(node_pre d ("/r/" ^ n)))
             [ "n1"; "n2"; "a5"; "a6"; "a7"; "a8"; "a9" ])
      in
      Alcotest.(check (list int)) "node/pos logged for new nodes and movers"
        expected logged)

(* ------------------------------------------ two scripts, one snapshot -- *)

(* Base pages a staged transaction rewrites: those it holds private copies
   of (its appended pages are numbered past the base). *)
let pages_written t =
  match View.staged_state (Txn.view t) with
  | None -> []
  | Some st ->
    Hashtbl.fold
      (fun phys _ acc -> if phys < st.View.base_npages then phys :: acc else acc)
      st.View.pages []

let rec duplicate_attr (e : Dom.element) =
  let names = List.map (fun (q, _) -> Xml.Qname.to_string q) e.attrs in
  List.length (List.sort_uniq compare names) <> List.length names
  || List.exists
       (function Dom.Element c -> duplicate_attr c | _ -> false)
       e.children

(* Re-anchor a generated script's targets under [//], so that most commands
   select something and the two scripts' write sets often meet. *)
let anywhere_cmd : Core.Xupdate.command -> Core.Xupdate.command =
  let open Xpath.Xpath_ast in
  let anywhere p =
    let any = { axis = Descendant_or_self; test = Kind_node; preds = [] } in
    { absolute = true; steps = any :: p.steps }
  in
  function
  | Remove p -> Remove (anywhere p)
  | Insert_before (p, c) -> Insert_before (anywhere p, c)
  | Insert_after (p, c) -> Insert_after (anywhere p, c)
  | Append (p, k, c) -> Append (anywhere p, k, c)
  | Update (p, s) -> Update (anywhere p, s)
  | Rename (p, q) -> Rename (anywhere p, q)

let stage m cmds =
  let t = Txn.begin_write m in
  match Core.Xupdate.apply (Txn.view t) cmds with
  | _ -> Some t
  | exception (Core.Xupdate.Apply_error _ | U.Update_error _) ->
    Txn.abort t;
    None

(* Two random scripts staged from one snapshot, committed in order. The
   store stays consistent and never holds a duplicate attribute; when both
   scripts rewrote a common page, the second committer loses and the store
   is exactly the DOM oracle's result of the first script alone. *)
let check_two_scripts (page_bits, d, cmds1, cmds2) =
  let m = Txn.manager (Up.of_dom ~page_bits ~fill:0.7 d) in
  let t1 = stage m cmds1 in
  let t2 = stage m cmds2 in
  let shared =
    match t1, t2 with
    | Some a, Some b ->
      let written_b = pages_written b in
      List.exists (fun page -> List.mem page written_b) (pages_written a)
    | _ -> false
  in
  Option.iter Txn.commit t1;
  let second_aborted =
    match Option.map Txn.commit t2 with
    | _ -> false
    | exception Txn.Aborted _ -> true
  in
  let got = Txn.read m Ser.to_dom in
  (match Up.check_integrity (Txn.store m) with
  | Ok () -> ()
  | Error msg -> QCheck2.Test.fail_reportf "integrity: %s" msg);
  if duplicate_attr got.Dom.root then
    QCheck2.Test.fail_reportf "duplicate attribute: %s"
      (Xml.Xml_serialize.to_string got);
  if shared then begin
    if not second_aborted then
      QCheck2.Test.fail_reportf "both scripts rewrote a page, yet both committed";
    let expected = fst (Testsupport.Oracle.apply d cmds1) in
    if not (Dom.equal (Dom.normalize got) (Dom.normalize expected)) then
      QCheck2.Test.fail_reportf
        "store is not the first script alone\nstore:  %s\noracle: %s"
        (Xml.Xml_serialize.to_string got)
        (Xml.Xml_serialize.to_string expected)
  end;
  true

let prop_two_scripts =
  let open Testsupport.Gen in
  QCheck2.Test.make ~name:"two scripts, one snapshot"
    ~count:500
    ~print:(fun (page_bits, d, c1, c2) ->
      let show cmds = String.concat " ; " (List.map show_command cmds) in
      Printf.sprintf "page_bits: %d\nfirst: %s\nsecond: %s\ndoc: %s" page_bits
        (show c1) (show c2) (print_doc d))
    (* small pages let disjoint scripts commit; large ones make most pairs
       share a page *)
    (let gen_script = QCheck2.Gen.map (List.map anywhere_cmd) gen_cmds in
     QCheck2.Gen.(quad (int_range 2 5) gen_doc gen_script gen_script))
    check_two_scripts

(* --------------------------------------------------------- mixed stress -- *)

let test_stress_concurrent_writers_and_readers () =
  (* 4 writers append under 4 disjoint subtrees, readers scan all along;
     everything must commit (disjoint pages) and the final document must
     contain every insert. *)
  let children = List.init 4 (fun i -> Dom.element (Printf.sprintf "zone%d" i)) in
  let d = Dom.doc { Dom.name = Xml.Qname.make "r"; attrs = []; children } in
  let base = Up.of_dom ~page_bits:4 ~fill:0.5 d in
  let m = Txn.manager base in
  let writer zone () =
    for i = 1 to 10 do
      with_retry m (fun v ->
          let z = node_pre v (Printf.sprintf "/r/zone%d" zone) in
          U.insert v (U.Last_child z)
            (P.parse_fragment (Printf.sprintf "<entry n='%d'/>" i)))
    done
  in
  let reader () =
    for _ = 1 to 20 do
      Txn.read m (fun v ->
          (* document always well-formed from a reader's seat *)
          let total = E.count v (Xpath.Xpath_parser.parse "//entry") in
          if total < 0 then failwith "impossible")
    done
  in
  run_threads (List.init 4 writer @ [ reader; reader ]);
  check_integrity base;
  Txn.read m (fun v ->
      Alcotest.(check int) "all 40 entries" 40
        (List.length (E.parse_eval v "//entry")))

let () =
  Alcotest.run "txn"
    [ ( "acid",
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
          Alcotest.test_case "same-page writers: second aborts" `Quick
            test_same_page_second_committer_aborts;
          Alcotest.test_case "snapshot conflict detected" `Quick
            test_snapshot_conflict_detected;
          Alcotest.test_case "stress: 4 writers + readers" `Quick
            test_stress_concurrent_writers_and_readers;
          Alcotest.test_case "delete vs insert-under" `Quick
            test_delete_vs_insert_under;
          Alcotest.test_case "freed node under newer delta" `Quick
            test_freed_node_under_newer_delta;
          Alcotest.test_case "same attribute, one snapshot" `Quick
            test_attribute_race;
          Alcotest.test_case "vacuum before commit (growing)" `Quick
            (test_vacuum_before_commit 0.3);
          Alcotest.test_case "vacuum before commit (shrinking)" `Quick
            (test_vacuum_before_commit 1.0);
          Alcotest.test_case "vacuum drops the touched page" `Quick
            test_vacuum_drops_touched_page;
          Alcotest.test_case "copied page keeps a concurrent delta" `Quick
            test_copied_page_keeps_concurrent_delta;
          Alcotest.test_case "unchanged cells are not logged" `Quick
            test_unchanged_cells_not_logged;
          Alcotest.test_case "window insert moves only the window" `Quick
            test_window_insert_moves_only_the_window;
          Testsupport.qcheck_case prop_two_scripts ] ) ]
