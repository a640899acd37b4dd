(* Direct tests of the View layer: read-through/copy-on-write semantics,
   private page staging, size-delta visibility, attribute deltas, node id
   lifecycle — the machinery under the transaction protocol. *)

module Dom = Xml.Dom
module P = Xml.Xml_parser
module Up = Core.Schema_up
module View = Core.View
module U = Core.Update
module E = Core.Engine.Make (Core.View)
module Ser = Core.Node_serialize.Make (Core.View)

let base () = Up.of_dom ~page_bits:3 ~fill:0.75 Testsupport.paper_doc

(* ---------------------------------------------------------- cell layer -- *)

(* Only a transaction's staged view is writable: every mutating operation on
   a direct view raises, and the base stays as it was. *)
let test_direct_read_only () =
  let t = base () in
  let before = Ser.to_dom (View.direct t) in
  let v = View.direct t in
  Alcotest.(check bool) "no staged state" true (View.staged_state v = None);
  let root = View.root_pre v in
  let node = Up.node_at t ~pre:root in
  let ops =
    [ ("write_cell", fun () -> View.write_cell v Up.Cname 3 99);
      ("splice_pages", fun () -> ignore (View.splice_pages v ~at_logical:0 ~count:1));
      ("private_page", fun () -> ignore (View.private_page v 0));
      ("node_pos_set", fun () -> View.node_pos_set v node 0);
      ("fresh_node_id", fun () -> ignore (View.fresh_node_id v));
      ("free_node_id", fun () -> View.free_node_id v node);
      ("add_size_delta", fun () -> View.add_size_delta v ~node 1);
      ("add_live", fun () -> View.add_live v 1);
      ("intern_qn", fun () -> ignore (View.intern_qn v (Xml.Qname.make "fresh")));
      ("intern_prop", fun () -> ignore (View.intern_prop v "p"));
      ("push_text", fun () -> ignore (View.push_text v "t"));
      ("push_comment", fun () -> ignore (View.push_comment v "c"));
      ("push_pi", fun () -> ignore (View.push_pi v ~target:"t" ~data:"d"));
      ("attr_add", fun () -> View.attr_add v ~node ~qn:0 ~prop:0);
      ("attr_remove_node", fun () -> View.attr_remove_node v ~node);
      ("attr_remove_named", fun () -> ignore (View.attr_remove_named v ~node ~qn:0)) ]
  in
  List.iter
    (fun (what, op) ->
      match op () with
      | () -> Alcotest.failf "%s on a direct view did not raise" what
      | exception Invalid_argument _ -> ())
    ops;
  Alcotest.(check bool) "base unchanged" true (Dom.equal before (Ser.to_dom v))

let test_staged_read_through_and_cow () =
  let t = base () in
  let v = View.staged t in
  let before = Up.get_cell t Up.Cname 3 in
  Alcotest.(check int) "read-through" before (View.read_cell v Up.Cname 3);
  View.write_cell v Up.Cname 3 1234;
  Alcotest.(check int) "staged sees own write" 1234 (View.read_cell v Up.Cname 3);
  Alcotest.(check int) "base untouched" before (Up.get_cell t Up.Cname 3);
  (* another view of the same base is isolated *)
  let v2 = View.staged t in
  Alcotest.(check int) "sibling view isolated" before (View.read_cell v2 Up.Cname 3)

let test_staged_pages_private () =
  let t = base () in
  let v = View.staged t in
  let base_pages = Up.npages t in
  let fresh = View.splice_pages v ~at_logical:1 ~count:2 in
  Alcotest.(check int) "two provisional pages" 2 (List.length fresh);
  Alcotest.(check bool) "ids past the base" true
    (List.for_all (fun p -> p >= base_pages) fresh);
  Alcotest.(check int) "view grew" (base_pages + 2) (View.npages v);
  Alcotest.(check int) "base did not" base_pages (Up.npages t);
  (* the staged pages are writable and readable *)
  let pos = List.hd fresh * View.page_size v in
  View.write_cell v Up.Clevel pos 7;
  Alcotest.(check int) "staged page cell" 7 (View.read_cell v Up.Clevel pos);
  (* the view's pre space contains the spliced page *)
  Alcotest.(check int) "extent includes splice" ((base_pages + 2) * View.page_size v)
    (View.extent v);
  (* splice ops recorded for commit *)
  match View.staged_state v with
  | Some st -> Alcotest.(check int) "one splice op" 1 (List.length st.View.splices)
  | None -> Alcotest.fail "staged"

let test_size_delta_visibility () =
  let t = base () in
  let v = View.staged t in
  let root = View.root_pre v in
  let node = Up.node_at t ~pre:root in
  let s0 = View.size v root in
  View.add_size_delta v ~node 5;
  View.add_size_delta v ~node 2;
  Alcotest.(check int) "own reads see accumulated delta" (s0 + 7) (View.size v root);
  Alcotest.(check int) "raw cell unchanged" s0 (View.read_cell v Up.Csize (View.pos_of_pre v root));
  Alcotest.(check int) "base unchanged" s0 (Up.size t root)

let test_node_id_lifecycle () =
  let t = base () in
  let v = View.staged t in
  let id = View.fresh_node_id v in
  Alcotest.(check int) "unmapped until set" Column.Varray.null (View.node_pos_get v id);
  View.node_pos_set v id 5;
  Alcotest.(check int) "staged mapping" 5 (View.node_pos_get v id);
  Alcotest.(check int) "base sees null" Column.Varray.null (Up.node_pos_get t id);
  View.free_node_id v id;
  Alcotest.(check int) "freed in view" Column.Varray.null (View.node_pos_get v id);
  match View.staged_state v with
  | Some st ->
    Alcotest.(check (list int)) "fresh recorded" [ id ] st.View.fresh_nodes;
    Alcotest.(check (list int)) "freed recorded" [ id ] st.View.freed_nodes
  | None -> Alcotest.fail "staged"

let test_attr_deltas () =
  let t = Up.of_dom ~page_bits:3 ~fill:0.75 Testsupport.small_doc in
  let v = View.staged t in
  let item =
    match E.parse_eval v "//item[@id='i0']" with
    | [ E.Node pre ] -> pre
    | _ -> Alcotest.fail "item"
  in
  let node = Up.node_at t ~pre:item in
  (* add through the view *)
  let qn = View.intern_qn v (Xml.Qname.make "grade") in
  View.attr_add v ~node ~qn ~prop:(View.intern_prop v "A");
  Alcotest.(check (option string)) "view sees add" (Some "A")
    (View.attribute v item (Xml.Qname.make "grade"));
  Alcotest.(check int) "base does not" 0
    (List.length
       (List.filter
          (fun (q, _) -> Xml.Qname.to_string q = "grade")
          (Up.attributes t item)));
  (* remove a base attribute through the view *)
  let id_qn = Option.get (View.qn_id v (Xml.Qname.make "id")) in
  Alcotest.(check bool) "removed" true (View.attr_remove_named v ~node ~qn:id_qn);
  Alcotest.(check (option string)) "view: gone" None
    (View.attribute v item (Xml.Qname.make "id"));
  Alcotest.(check (option string)) "base: still there" (Some "i0")
    (Up.attribute t item (Xml.Qname.make "id"));
  (* cancel a staged add *)
  Alcotest.(check bool) "staged add removable" true
    (View.attr_remove_named v ~node ~qn);
  Alcotest.(check (option string)) "cancelled" None
    (View.attribute v item (Xml.Qname.make "grade"))

let test_pool_log () =
  let t = base () in
  let v = View.staged t in
  let _ = View.push_text v "hello" in
  let _ = View.intern_qn v (Xml.Qname.make "fresh") in
  let _ = View.push_pi v ~target:"tgt" ~data:"dta" in
  match View.staged_state v with
  | Some st ->
    Alcotest.(check int) "four log entries (pi counts twice)" 4
      (List.length st.View.pool_log)
  | None -> Alcotest.fail "staged"

let test_touch_callback_granularity () =
  let t = base () in
  let touched = ref [] in
  let v = View.staged ~touch:(fun page -> touched := page :: !touched) t in
  ignore (View.read_cell v Up.Clevel 1);
  Alcotest.(check bool) "read touch" true (List.mem 0 !touched);
  touched := [];
  View.write_cell v Up.Cname 9 0;
  Alcotest.(check bool) "write touch page 1" true (List.mem 1 !touched);
  touched := [];
  (* staged pages bypass the callback *)
  let fresh = View.splice_pages v ~at_logical:0 ~count:1 in
  View.write_cell v Up.Cname (List.hd fresh * View.page_size v) 0;
  Alcotest.(check (list int)) "no touch for staged pages" [] !touched;
  (* size deltas bypass the callback: the no-root-lock property *)
  let node = Up.node_at t ~pre:(Up.root_pre t) in
  View.add_size_delta v ~node 1;
  Alcotest.(check (list int)) "no touch for deltas" [] !touched

(* A full update sequence through a staged view leaves the base bit-for-bit
   unchanged until commit (verified via serialisation + integrity). *)
let test_staging_never_mutates_base () =
  let t = Up.of_dom ~page_bits:2 ~fill:0.6 Testsupport.small_doc in
  let before = Ser.to_dom (View.direct t) in
  let v = View.staged t in
  U.insert v (U.Last_child (View.root_pre v)) (P.parse_fragment "<extra><deep/></extra>");
  U.delete v
    ~pre:
      (match E.parse_eval v "//item[1]" with
      | [ E.Node pre ] -> pre
      | _ -> Alcotest.fail "item");
  U.set_attribute v
    ~pre:
      (match E.parse_eval v "//person[1]" with
      | [ E.Node pre ] -> pre
      | _ -> Alcotest.fail "person")
    (Xml.Qname.make "touched") "yes";
  (* the staged view shows the new world *)
  Alcotest.(check int) "staged extra" 1 (List.length (E.parse_eval v "//extra"));
  Alcotest.(check int) "staged delete" 1 (List.length (E.parse_eval v "//item"));
  (* the base still shows the old one *)
  let after = Ser.to_dom (View.direct t) in
  Alcotest.(check bool) "base unchanged" true (Dom.equal before after);
  match Up.check_integrity t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "integrity: %s" m

let () =
  Alcotest.run "view"
    [ ( "cells",
        [ Alcotest.test_case "direct views are read-only" `Quick test_direct_read_only;
          Alcotest.test_case "staged COW" `Quick test_staged_read_through_and_cow;
          Alcotest.test_case "private pages" `Quick test_staged_pages_private ] );
      ( "deltas",
        [ Alcotest.test_case "size deltas" `Quick test_size_delta_visibility;
          Alcotest.test_case "node ids" `Quick test_node_id_lifecycle;
          Alcotest.test_case "attributes" `Quick test_attr_deltas;
          Alcotest.test_case "pool log" `Quick test_pool_log ] );
      ( "protocol",
        [ Alcotest.test_case "touch granularity" `Quick test_touch_callback_granularity;
          Alcotest.test_case "staging never mutates base" `Quick
            test_staging_never_mutates_base ] ) ]
