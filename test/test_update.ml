(* Structural update tests (Figure 7): within-page inserts, page-overflow
   inserts, deletes, value updates — each checked against the DOM oracle and
   the full integrity checker. Includes the paper's exact Figure 4 walk. *)

module Dom = Xml.Dom
module Qname = Xml.Qname
module P = Xml.Xml_parser
module Up = Core.Schema_up
module View = Core.View
module U = Core.Update
module Txn = Core.Txn
module Ser = Core.Node_serialize.Make (Core.View)
module Sj = Core.Staircase.Make (Core.View)
module E = Core.Engine.Make (Core.View)
module Ord = Testsupport.Ord (Core.View)

let doc = Alcotest.testable Dom.pp Dom.equal

let check_integrity t =
  match Up.check_integrity t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "integrity: %s" m

let pre_of_ordinal v ord =
  let _, rev = Ord.mapping v in
  Hashtbl.find rev ord

(* -------------------------------------------------- the Figure 4 walk -- *)

let test_figure4 () =
  (* Page size 8, page 0 = a..g (one free slot), page 1 = h i j (five free),
     then append <k><l/><m/></k> as last child of g. *)
  let t = Up.of_dom ~page_bits:3 ~fill:0.875 Testsupport.paper_doc in
  Alcotest.(check int) "two pages" 2 (Up.npages t);
  let v = Testsupport.view t in
  let g = pre_of_ordinal v 6 in
  Alcotest.(check string) "g found" "g" (Qname.to_string (View.qname v g));
  let kids = P.parse_fragment "<k><l/><m/></k>" in
  Txn.with_write (Txn.manager t) (fun w -> U.insert w (U.Last_child g) kids);
  check_integrity t;
  let v = Testsupport.view t in
  (* A third page was appended physically and spliced in as logical page 1 *)
  Alcotest.(check int) "three pages" 3 (Up.npages t);
  Alcotest.(check int) "logical 0 is phys 0" 0
    (Column.Pagemap.phys_of_logical (Up.pagemap t) 0);
  Alcotest.(check int) "logical 1 is the fresh phys 2" 2
    (Column.Pagemap.phys_of_logical (Up.pagemap t) 1);
  Alcotest.(check int) "logical 2 is old phys 1" 1
    (Column.Pagemap.phys_of_logical (Up.pagemap t) 2);
  (* k landed in page 0's single free slot (pos 7), l and m on the new page *)
  Alcotest.(check string) "pre 7 = k" "k" (Qname.to_string (View.qname v 7));
  Alcotest.(check string) "pre 8 = l" "l" (Qname.to_string (View.qname v 8));
  Alcotest.(check string) "pre 9 = m" "m" (Qname.to_string (View.qname v 9));
  Alcotest.(check bool) "pre 10 unused" false (View.is_used v 10);
  Alcotest.(check string) "pre 16 = h (shifted for free)" "h"
    (Qname.to_string (View.qname v 16));
  (* ancestor sizes exactly as in Figure 4 *)
  Alcotest.(check int) "size a = 12" 12 (View.size v 0);
  Alcotest.(check int) "size f = 7" 7 (View.size v 5);
  Alcotest.(check int) "size g = 3" 3 (View.size v 6);
  Alcotest.(check int) "size b unchanged" 3 (View.size v 1);
  (* level of untouched nodes unchanged *)
  Alcotest.(check int) "level h" 2 (View.level v 16);
  let expected =
    P.parse
      "<a><b><c><d></d><e></e></c></b><f><g><k><l/><m/></k></g><h><i></i><j></j></h></f></a>"
  in
  Alcotest.check doc "document content" expected (Ser.to_dom v)

let test_figure4_within_page () =
  (* Same setup, but insert a single node: fits the free slot -> no new page,
     pre numbers after the point shift only within the page. *)
  let t = Up.of_dom ~page_bits:3 ~fill:0.875 Testsupport.paper_doc in
  let g = pre_of_ordinal (Testsupport.view t) 6 in
  Txn.with_write (Txn.manager t) (fun w ->
      U.insert w (U.Last_child g) (P.parse_fragment "<k/>"));
  check_integrity t;
  let v = Testsupport.view t in
  Alcotest.(check int) "still two pages" 2 (Up.npages t);
  Alcotest.(check bool) "pagemap still identity" true
    (Column.Pagemap.is_identity (Up.pagemap t));
  Alcotest.(check string) "k in the free slot" "k" (Qname.to_string (View.qname v 7));
  Alcotest.(check int) "size a = 10" 10 (View.size v 0)

(* ------------------------------------------------------ insert points -- *)

let site () = Up.of_dom ~page_bits:3 ~fill:0.75 Testsupport.small_doc

let query v src = E.parse_eval v src

let names v = List.map (E.item_string v) (query v "/site/people/person/name")

let person v i =
  match query v (Printf.sprintf "/site/people/person[%d]" i) with
  | [ E.Node pre ] -> pre
  | _ -> Alcotest.fail "person not found"

let test_insert_before_after () =
  let t = site () in
  let m = Txn.manager t in
  Txn.with_write m (fun w ->
      U.insert w (U.Before (person w 1))
        (P.parse_fragment "<person><name>Zero</name></person>"));
  check_integrity t;
  Alcotest.(check (list string)) "before first"
    [ "Zero"; "Ada"; "Grace"; "Edsger" ] (names (Testsupport.view t));
  Txn.with_write m (fun w ->
      U.insert w (U.After (person w 2))
        (P.parse_fragment "<person><name>Half</name></person>"));
  check_integrity t;
  Alcotest.(check (list string)) "after second"
    [ "Zero"; "Ada"; "Half"; "Grace"; "Edsger" ] (names (Testsupport.view t))

let test_insert_nth_and_first () =
  let t = site () in
  let m = Txn.manager t in
  let v = Testsupport.view t in
  let people =
    match query v "/site/people" with
    | [ E.Node pre ] -> pre
    | _ -> Alcotest.fail "people"
  in
  Txn.with_write m (fun w ->
      U.insert w (U.First_child people)
        (P.parse_fragment "<person><name>First</name></person>");
      U.insert w (U.Nth_child (people, 3))
        (P.parse_fragment "<person><name>Third</name></person>"));
  check_integrity t;
  Alcotest.(check (list string)) "first and third"
    [ "First"; "Ada"; "Third"; "Grace"; "Edsger" ] (names (Testsupport.view t));
  Alcotest.check_raises "nth out of range"
    (U.Update_error "insert nth-child: position 9 out of range (node has 5 children)")
    (fun () ->
      Txn.with_write m (fun w ->
          U.insert w (U.Nth_child (people, 9)) (P.parse_fragment "<x/>")))

let test_insert_forest_and_mixed () =
  let t = site () in
  let v = Testsupport.view t in
  let p = person v 3 in
  Txn.with_write (Txn.manager t) (fun w ->
      U.insert w (U.Last_child p) (P.parse_fragment "text<why>because</why><!--note-->"));
  check_integrity t;
  let v = Testsupport.view t in
  match query v "/site/people/person[3]" with
  | [ E.Node pre ] ->
    Alcotest.(check string) "string value" "Edsgertextbecause" (E.string_value v pre)
  | _ -> Alcotest.fail "person 3"

let test_insert_errors () =
  let t = site () in
  let m = Txn.manager t in
  let v = Testsupport.view t in
  let root = View.root_pre v in
  Alcotest.check_raises "before root" (U.Update_error "insert-before: target is the root")
    (fun () ->
      Txn.with_write m (fun w -> U.insert w (U.Before root) (P.parse_fragment "<x/>")));
  (* a text node cannot take children *)
  (match query v "/site/people/person[1]/name/text()" with
  | [ E.Node txt ] -> (
    match
      Txn.with_write m (fun w -> U.insert w (U.Last_child txt) (P.parse_fragment "<x/>"))
    with
    | () -> Alcotest.fail "expected error"
    | exception U.Update_error _ -> ())
  | _ -> Alcotest.fail "text node");
  (* empty forest is a no-op *)
  Txn.with_write m (fun w -> U.insert w (U.Last_child root) []);
  check_integrity t

(* ------------------------------------------------------------ deletes -- *)

let test_delete_subtree () =
  let t = site () in
  let m = Txn.manager t in
  let v = Testsupport.view t in
  let before_live = Up.node_count t in
  let p = person v 2 in
  let psize = View.size v p in
  Txn.with_write m (fun w -> U.delete w ~pre:p);
  check_integrity t;
  let v = Testsupport.view t in
  Alcotest.(check (list string)) "grace gone" [ "Ada"; "Edsger" ] (names v);
  Alcotest.(check int) "live count dropped" (before_live - psize - 1) (Up.node_count t);
  (* slots are unused, not shifted: extent unchanged *)
  Alcotest.(check int) "extent unchanged" (Up.extent t) (View.extent v);
  Alcotest.check_raises "delete root"
    (U.Update_error "delete: cannot remove the document root") (fun () ->
      Txn.with_write m (fun w -> U.delete w ~pre:(View.root_pre w)))

let test_delete_then_insert_reuses_slots () =
  let t = site () in
  let m = Txn.manager t in
  let pages_before = Up.npages t in
  Txn.with_write m (fun w -> U.delete w ~pre:(person w 2));
  (* the freed slots allow a within-page insert where it would have overflowed *)
  Txn.with_write m (fun w ->
      U.insert w (U.After (person w 1))
        (P.parse_fragment "<person><name>Grace</name><age>45</age></person>"));
  check_integrity t;
  Alcotest.(check (list string)) "restored" [ "Ada"; "Grace"; "Edsger" ]
    (names (Testsupport.view t));
  Alcotest.(check int) "no new pages" pages_before (Up.npages t)

(* ------------------------------------------------------- value updates -- *)

let test_value_updates () =
  let t = site () in
  let m = Txn.manager t in
  let v = Testsupport.view t in
  (match query v "/site/people/person[1]/name/text()" with
  | [ E.Node txt ] -> Txn.with_write m (fun w -> U.set_text w ~pre:txt "Augusta")
  | _ -> Alcotest.fail "text");
  let v = Testsupport.view t in
  Alcotest.(check (list string)) "text updated" [ "Augusta"; "Grace"; "Edsger" ] (names v);
  let p = person v 1 in
  Txn.with_write m (fun w ->
      U.set_attribute w ~pre:p (Qname.make "id") "p0-renamed";
      U.set_attribute w ~pre:p (Qname.make "vip") "yes");
  let attr q = View.attribute (Testsupport.view t) p (Qname.make q) in
  Alcotest.(check (option string)) "attr replaced" (Some "p0-renamed") (attr "id");
  Alcotest.(check (option string)) "attr added" (Some "yes") (attr "vip");
  Alcotest.(check bool) "attr removed" true
    (Txn.with_write m (fun w -> U.remove_attribute w ~pre:p (Qname.make "vip")));
  Alcotest.(check (option string)) "gone" None (attr "vip");
  Alcotest.(check bool) "remove missing" false
    (Txn.with_write m (fun w -> U.remove_attribute w ~pre:p (Qname.make "vip")));
  check_integrity t

(* -------------------------------------------- randomised oracle mirror -- *)

type op =
  | Ins of int * [ `First | `Last | `Before | `After ] * Dom.node
  | Del of int

let gen_op =
  let open QCheck2.Gen in
  let small_fragment =
    oneof
      [ map (fun s -> Dom.Text ("x" ^ string_of_int s)) (int_bound 9);
        return (Xml.Dom.Element
                  { name = Qname.make "w";
                    attrs = [ (Qname.make "k", "v") ];
                    children = [ Dom.Text "deep" ] });
        map
          (fun n ->
            Xml.Dom.Element
              { name = Qname.make "wide";
                attrs = [];
                children = List.init n (fun i -> Dom.element ("c" ^ string_of_int i)) })
          (int_range 1 12) ]
  in
  oneof
    [ (let* target = int_bound 1000 in
       let* where = oneofl [ `First; `Last; `Before; `After ] in
       let* frag = small_fragment in
       return (Ins (target, where, frag)));
      map (fun t -> Del t) (int_bound 1000) ]

(* Apply an op to both the storage (a staged view) and the DOM; targets are
   ordinals modulo the current node count. *)
let apply_both v dom op =
  let count = Dom.node_count dom in
  let elements_only ord =
    (* storage target by ordinal *)
    pre_of_ordinal v ord
  in
  match op with
  | Ins (target, where, frag) -> (
    let ord = target mod count in
    let pre = elements_only ord in
    let path = Testsupport.path_of_ordinal dom ord in
    let is_element =
      match Dom.node_at dom path with Dom.Element _ -> true | _ -> false
    in
    match where with
    | (`First | `Last) when not is_element -> dom (* skip: invalid target *)
    | `First ->
      U.insert v (U.First_child pre) [ frag ];
      Dom.insert_children dom path ~at:0 [ frag ]
    | `Last ->
      U.insert v (U.Last_child pre) [ frag ];
      Dom.insert_children dom path ~at:(Testsupport.children_count dom path) [ frag ]
    | `Before | `After -> (
      match List.rev path with
      | [] -> dom (* root: skip *)
      | last :: rparent ->
        let parent = List.rev rparent in
        let at = if where = `Before then last else last + 1 in
        (if where = `Before then U.insert v (U.Before pre) [ frag ]
         else U.insert v (U.After pre) [ frag ]);
        Dom.insert_children dom parent ~at [ frag ]))
  | Del target ->
    let ord = target mod count in
    if ord = 0 then dom (* root: skip *)
    else begin
      let pre = elements_only ord in
      let path = Testsupport.path_of_ordinal dom ord in
      U.delete v ~pre;
      Dom.remove_at dom path
    end

(* How many inserts took each Figure 7 case: a window after the point (7a),
   free slots only before it (page compaction), overflow (7b). *)
let window_inserts = ref 0 and compactions = ref 0 and overflows = ref 0

let counter name = Obs.value (Obs.counter name)

(* One op in its own commit; the store must pass the integrity check
   (node/pos agreeing with the plane included) after every commit. *)
let commit_op m t dom op =
  let i0 = counter "schema_up.inserts"
  and c0 = counter "schema_up.page_compactions"
  and o0 = counter "schema_up.page_overflows" in
  let dom = Txn.with_write m (fun w -> apply_both w dom op) in
  (match Up.check_integrity t with
  | Ok () -> ()
  | Error msg -> QCheck2.Test.fail_reportf "integrity: %s" msg);
  let c = counter "schema_up.page_compactions" - c0
  and o = counter "schema_up.page_overflows" - o0 in
  compactions := !compactions + c;
  overflows := !overflows + o;
  window_inserts := !window_inserts + (counter "schema_up.inserts" - i0 - c - o);
  dom

let prop_update_mirror =
  QCheck2.Test.make
    ~name:"random update sequences match the DOM oracle (one commit per op)"
    ~count:200
    QCheck2.Gen.(
      triple Testsupport.gen_doc (list_size (int_range 1 20) gen_op)
        (pair (int_range 1 5) (oneofl [ 0.6; 0.8; 1.0 ])))
    (fun (d, ops, (bits, fill)) ->
      let t = Up.of_dom ~page_bits:bits ~fill d in
      let m = Txn.manager t in
      let dom = List.fold_left (commit_op m t) d ops in
      let v = Testsupport.view t in
      if not (Dom.equal dom (Ser.to_dom v)) then
        QCheck2.Test.fail_reportf "mismatch:\noracle: %s\nstore:  %s"
          (Xml.Xml_serialize.to_string dom)
          (Xml.Xml_serialize.to_string (Ser.to_dom v))
      else begin
        (* compaction must preserve the document and all invariants *)
        Up.compact ~fill t;
        (match Up.check_integrity t with
        | Ok () -> ()
        | Error m -> QCheck2.Test.fail_reportf "integrity after compact: %s" m);
        if not (Dom.equal dom (Ser.to_dom (Testsupport.view t))) then
          QCheck2.Test.fail_report "document changed by compact"
        else if not (Column.Pagemap.is_identity (Up.pagemap t)) then
          QCheck2.Test.fail_report "compact did not restore identity order"
        else true
      end)

(* The property, then a check that its inserts took every Figure 7 case. *)
let update_mirror_case =
  let name, speed, run = Testsupport.qcheck_case prop_update_mirror in
  ( name,
    speed,
    fun () ->
      run ();
      List.iter
        (fun (what, n) -> Alcotest.(check bool) (what ^ " covered") true (!n > 0))
        [ ("hole after the point (7a)", window_inserts);
          ("free slots only before the point", compactions);
          ("overflow (7b)", overflows) ] )

(* Deep repeated inserts at the same point: the degenerate case for
   variable-length labelling schemes; here it must stay healthy. *)
let test_repeated_inserts_same_point () =
  let t = Up.of_dom ~page_bits:2 ~fill:0.75 (P.parse "<r><a/><b/></r>") in
  let m = Txn.manager t in
  for i = 1 to 200 do
    Txn.with_write m (fun w ->
        let a =
          match query w "/r/a" with
          | [ E.Node pre ] -> pre
          | _ -> Alcotest.fail "a"
        in
        U.insert w (U.After a) (P.parse_fragment (Printf.sprintf "<n i='%d'/>" i)))
  done;
  check_integrity t;
  let v = Testsupport.view t in
  Alcotest.(check int) "all present" 200 (List.length (query v "/r/n"));
  Alcotest.(check int) "sizes correct" 202 (View.size v (View.root_pre v))

let test_insert_cost_is_local () =
  (* Inserting into a huge document touches O(page) tuples, not O(N). *)
  let wide =
    Dom.doc
      { Dom.name = Qname.make "r";
        attrs = [];
        children = List.init 5000 (fun i -> Dom.element ("e" ^ string_of_int (i mod 7))) }
  in
  let t = Up.of_dom ~page_bits:6 ~fill:0.9 wide in
  let v = Testsupport.view t in
  U.reset_costs ();
  let target = pre_of_ordinal v 2500 in
  Txn.with_write (Txn.manager t) (fun w ->
      U.insert w (U.Before target) (P.parse_fragment "<probe/>"));
  check_integrity t;
  Alcotest.(check bool)
    (Printf.sprintf "moved %d tuples <= page size" U.costs.U.moved_tuples)
    true
    (U.costs.U.moved_tuples <= Up.page_size t);
  Alcotest.(check bool) "at most one new page" true (U.costs.U.new_pages <= 1)

let () =
  Alcotest.run "update"
    [ ( "figure4",
        [ Alcotest.test_case "page-overflow insert (paper walk)" `Quick test_figure4;
          Alcotest.test_case "within-page insert" `Quick test_figure4_within_page ] );
      ( "insert",
        [ Alcotest.test_case "before/after" `Quick test_insert_before_after;
          Alcotest.test_case "first/nth child" `Quick test_insert_nth_and_first;
          Alcotest.test_case "forests and mixed content" `Quick test_insert_forest_and_mixed;
          Alcotest.test_case "invalid points" `Quick test_insert_errors;
          Alcotest.test_case "repeated inserts at one point" `Quick
            test_repeated_inserts_same_point;
          Alcotest.test_case "cost is O(page), not O(N)" `Quick test_insert_cost_is_local ] );
      ( "delete",
        [ Alcotest.test_case "subtree" `Quick test_delete_subtree;
          Alcotest.test_case "freed slots reused" `Quick test_delete_then_insert_reuses_slots ] );
      ("values", [ Alcotest.test_case "text and attributes" `Quick test_value_updates ]);
      ("property", [ update_mirror_case ]) ]
