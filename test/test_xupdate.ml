(* XUpdate language tests: parsing, constructors, application semantics —
   including the paper's own xupdate:append example (§2.1 / Figure 3). *)

module Dom = Xml.Dom
module P = Xml.Xml_parser
module Up = Core.Schema_up
module View = Core.View
module Xu = Core.Xupdate
module Txn = Core.Txn
module E = Core.Engine.Make (Core.View)
module Ser = Core.Node_serialize.Make (Core.View)

let doc = Alcotest.testable Dom.pp Dom.equal

let wrap body = Printf.sprintf "<xupdate:modifications>%s</xupdate:modifications>" body

let check_integrity t =
  match Up.check_integrity t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "integrity: %s" m

(* Apply a script as one committed transaction; return the affected count,
   the store and a (read-only) direct view of the result. *)
let apply_to ?(src = Testsupport.small_doc) body =
  let t = Up.of_dom ~page_bits:3 ~fill:0.75 src in
  let n = Txn.with_write (Txn.manager t) (fun v -> Xu.apply_string v (wrap body)) in
  check_integrity t;
  (n, t, Testsupport.view t)

(* -------------------------------------------------------------- parsing -- *)

let test_parse_commands () =
  let cmds =
    Xu.parse
      (wrap
         {|<xupdate:remove select="/a/b"/>
           <xupdate:insert-before select="//x"><y/></xupdate:insert-before>
           <xupdate:insert-after select="//x"><y/>text</xupdate:insert-after>
           <xupdate:append select="/a" child="2"><z/></xupdate:append>
           <xupdate:update select="//t">new</xupdate:update>|})
  in
  match cmds with
  | [ Xu.Remove _;
      Xu.Insert_before (_, [ Xu.Node (Dom.Element _) ]);
      Xu.Insert_after (_, [ Xu.Node (Dom.Element _); Xu.Node (Dom.Text "text") ]);
      Xu.Append (_, Some 2, [ Xu.Node _ ]);
      Xu.Update (_, "new") ] ->
    ()
  | _ -> Alcotest.fail "unexpected command shapes"

let test_parse_constructors () =
  let cmds =
    Xu.parse
      (wrap
         {|<xupdate:append select="/r">
             <xupdate:element name="e">
               <xupdate:attribute name="id">e1</xupdate:attribute>
               <xupdate:text>hello</xupdate:text>
               <inner/>
             </xupdate:element>
             <xupdate:comment>a note</xupdate:comment>
             <xupdate:processing-instruction name="go">now</xupdate:processing-instruction>
             <xupdate:attribute name="top">v</xupdate:attribute>
           </xupdate:append>|})
  in
  match cmds with
  | [ Xu.Append (_, None, content) ] -> (
    match content with
    | [ Xu.Attr (q, "v");
        Xu.Node (Dom.Element e);
        Xu.Node (Dom.Comment "a note");
        Xu.Node (Dom.Pi { target = "go"; data = "now" }) ] ->
      Alcotest.(check string) "attr" "top" (Xml.Qname.to_string q);
      Alcotest.(check string) "elem name" "e" (Xml.Qname.to_string e.Dom.name);
      Alcotest.(check int) "elem attrs" 1 (List.length e.Dom.attrs);
      (match e.Dom.children with
      | [ Dom.Text "hello"; Dom.Element _ ] -> ()
      | _ -> Alcotest.fail "element children")
    | _ -> Alcotest.fail "content shape")
  | _ -> Alcotest.fail "expected one append"

let expect_parse_error body =
  match Xu.parse (wrap body) with
  | _ -> Alcotest.failf "expected parse error for %s" body
  | exception Xu.Parse_error _ -> ()

let test_parse_errors () =
  expect_parse_error {|<xupdate:remove/>|};
  expect_parse_error {|<xupdate:remove select="][bad"/>|};
  expect_parse_error {|<xupdate:frobnicate select="/a"/>|};
  expect_parse_error {|<xupdate:append select="/a" child="zero"><x/></xupdate:append>|};
  expect_parse_error {|<xupdate:append select="/a" child="0"><x/></xupdate:append>|};
  expect_parse_error {|<xupdate:append select="/a"><xupdate:element><x/></xupdate:element></xupdate:append>|};
  match Xu.parse "<wrong><xupdate:remove select='/a'/></wrong>" with
  | _ -> Alcotest.fail "expected root error"
  | exception Xu.Parse_error _ -> ()

(* ---------------------------------------------------- the paper example -- *)

let test_paper_append_example () =
  (* Figure 3 / Figure 4: <xupdate:append select='/a/f/g'> <k><l/><m/></k> *)
  let n, t, v =
    apply_to ~src:Testsupport.paper_doc
      {|<xupdate:append select="/a/f/g"><k><l/><m/></k></xupdate:append>|}
  in
  Alcotest.(check int) "one target" 1 n;
  Alcotest.(check int) "root size 12" 12 (View.size v (View.root_pre v));
  let expected =
    P.parse
      "<a><b><c><d/><e/></c></b><f><g><k><l/><m/></k></g><h><i/><j/></h></f></a>"
  in
  Alcotest.check doc "figure 3 result" expected (Ser.to_dom v);
  check_integrity t

(* ------------------------------------------------------------- commands -- *)

let test_remove () =
  let n, _, v = apply_to {|<xupdate:remove select="/site/people/person[@id='p1']"/>|} in
  Alcotest.(check int) "one removed" 1 n;
  Alcotest.(check int) "two persons left" 2 (List.length (E.parse_eval v "//person"))

let test_remove_nested_selection () =
  (* selecting a subtree and a node inside it: the inner one is already gone *)
  let n, _, v = apply_to {|<xupdate:remove select="//item[1]/descendant-or-self::node()"/>|} in
  Alcotest.(check bool) "at least the subtree root" true (n >= 1);
  Alcotest.(check int) "one item left" 1 (List.length (E.parse_eval v "//item"))

let test_remove_attribute () =
  let n, _, v = apply_to {|<xupdate:remove select="//person/@id"/>|} in
  Alcotest.(check int) "three attrs removed" 3 n;
  Alcotest.(check int) "no ids left" 0 (List.length (E.parse_eval v "//person/@id"))

let test_insert_before_multi_target () =
  let n, _, v =
    apply_to {|<xupdate:insert-before select="//person"><mark/></xupdate:insert-before>|}
  in
  Alcotest.(check int) "three targets" 3 n;
  Alcotest.(check int) "three marks" 3 (List.length (E.parse_eval v "//mark"));
  (* each mark directly precedes a person *)
  Alcotest.(check int) "marks before persons" 3
    (List.length (E.parse_eval v "//mark/following-sibling::person"))

let test_insert_after () =
  let _, _, v =
    apply_to
      {|<xupdate:insert-after select="/site/people/person[2]"><person id="p1b"/></xupdate:insert-after>|}
  in
  let ids =
    List.map (E.item_string v) (E.parse_eval v "/site/people/person/@id")
  in
  Alcotest.(check (list string)) "order" [ "p0"; "p1"; "p1b"; "p2" ] ids

let test_append_with_child_position () =
  let _, _, v =
    apply_to
      {|<xupdate:append select="/site/people" child="1"><person id="first"/></xupdate:append>|}
  in
  let ids = List.map (E.item_string v) (E.parse_eval v "/site/people/person/@id") in
  Alcotest.(check (list string)) "inserted first" [ "first"; "p0"; "p1"; "p2" ] ids

let test_append_attribute_constructor () =
  let n, _, v =
    apply_to
      {|<xupdate:append select="//item[2]">
          <xupdate:attribute name="discount">10%</xupdate:attribute>
        </xupdate:append>|}
  in
  Alcotest.(check int) "one target" 1 n;
  Alcotest.(check (option string)) "attribute set" (Some "10%")
    (match E.parse_eval v "//item[2]" with
    | [ E.Node pre ] -> View.attribute v pre (Xml.Qname.make "discount")
    | _ -> None)

let test_update_text_and_element_and_attr () =
  let _, _, v =
    apply_to
      {|<xupdate:update select="/site/people/person[1]/name/text()">Ada L.</xupdate:update>
        <xupdate:update select="/site/items/item[1]/desc">plain now</xupdate:update>
        <xupdate:update select="/site/people/person[2]/@id">p1-new</xupdate:update>|}
  in
  Alcotest.(check (option string)) "text updated" (Some "Ada L.")
    (match E.parse_eval v "/site/people/person[1]/name" with
    | [ it ] -> Some (E.item_string v it)
    | _ -> None);
  (match E.parse_eval v "/site/items/item[1]/desc" with
  | [ E.Node pre ] ->
    Alcotest.(check string) "element content replaced" "plain now" (E.string_value v pre);
    Alcotest.(check int) "single text child" 0
      (List.length (E.parse_eval v "/site/items/item[1]/desc/b"))
  | _ -> Alcotest.fail "desc");
  Alcotest.(check int) "attr renamed" 1 (List.length (E.parse_eval v "//person[@id='p1-new']"))

let test_apply_errors () =
  let m = Txn.manager (Up.of_dom Testsupport.small_doc) in
  let apply body = Txn.with_write m (fun v -> Xu.apply_string v (wrap body)) in
  (match apply {|<xupdate:remove select="/site"/>|} with
  | _ -> Alcotest.fail "expected remove-root error"
  | exception Xu.Apply_error _ -> ());
  (match apply {|<xupdate:insert-before select="/site"><x/></xupdate:insert-before>|} with
  | _ -> Alcotest.fail "expected before-root error"
  | exception Xu.Apply_error _ -> ());
  match
    apply
      {|<xupdate:insert-after select="//person[1]">
          <xupdate:attribute name="a">v</xupdate:attribute>
        </xupdate:insert-after>|}
  with
  | _ -> Alcotest.fail "expected attr-content error"
  | exception Xu.Apply_error _ -> ()

let test_rename () =
  let n, t, v =
    apply_to
      {|<xupdate:rename select="//person[@id='p1']">member</xupdate:rename>
        <xupdate:rename select="//item[1]/@id">sku</xupdate:rename>|}
  in
  Alcotest.(check int) "two targets" 2 n;
  Alcotest.(check int) "renamed element" 1 (List.length (E.parse_eval v "//member"));
  Alcotest.(check int) "old name gone" 2 (List.length (E.parse_eval v "//person"));
  (* the renamed element keeps its content and attributes *)
  Alcotest.(check (list string)) "content preserved" [ "Grace" ]
    (List.map (E.item_string v) (E.parse_eval v "//member/name"));
  Alcotest.(check (list string)) "attr kept" [ "p1" ]
    (List.map (E.item_string v) (E.parse_eval v "//member/@id"));
  (* attribute rename keeps the value *)
  Alcotest.(check (list string)) "attr renamed" [ "i0" ]
    (List.map (E.item_string v) (E.parse_eval v "//item[1]/@sku"));
  Alcotest.(check int) "old attr gone" 1 (List.length (E.parse_eval v "//item/@id"));
  check_integrity t

let test_rename_errors () =
  expect_parse_error {|<xupdate:rename select="//a">not a name!</xupdate:rename>|};
  let t = Up.of_dom Testsupport.small_doc in
  match
    Txn.with_write (Txn.manager t) (fun v ->
        Xu.apply_string v (wrap {|<xupdate:rename select="//name/text()">x</xupdate:rename>|}))
  with
  | _ -> Alcotest.fail "expected error renaming a text node"
  | exception Xu.Apply_error _ -> ()

(* The same XUpdate script on radically different page geometries must yield
   the same document — exercising within-page shifts on one geometry and
   page overflows on another. *)
let gen_script =
  let open QCheck2.Gen in
  let target =
    oneofl
      [ "//person[1]"; "//person[last()]"; "//item[1]"; "/site/people"; "//desc" ]
  in
  let frag =
    oneofl
      [ "<x/>"; "<x><y>deep</y></x>"; "txt"; "<a/><b/><c/>";
        "<wide><k1/><k2/><k3/><k4/><k5/><k6/><k7/><k8/><k9/></wide>" ]
  in
  let command =
    let* t = target in
    let* f = frag in
    oneofl
      [ Printf.sprintf {|<xupdate:insert-before select="%s">%s</xupdate:insert-before>|} t f;
        Printf.sprintf {|<xupdate:insert-after select="%s">%s</xupdate:insert-after>|} t f;
        Printf.sprintf {|<xupdate:append select="%s">%s</xupdate:append>|} t f;
        Printf.sprintf {|<xupdate:remove select="%s/node()[1]"/>|} t;
        Printf.sprintf {|<xupdate:update select="%s">replaced</xupdate:update>|} t;
        Printf.sprintf {|<xupdate:rename select="%s">zz</xupdate:rename>|} t ]
  in
  list_size (int_range 1 6) command

let prop_geometry_equivalence =
  QCheck2.Test.make
    ~name:"same XUpdate script, any page geometry, same document" ~count:120
    ~print:(fun cmds -> String.concat "\n" cmds)
    gen_script
    (fun cmds ->
      let script = wrap (String.concat "" cmds) in
      let run (bits, fill) =
        let t = Up.of_dom ~page_bits:bits ~fill Testsupport.small_doc in
        (try
           ignore (Txn.with_write (Txn.manager t) (fun v -> Xu.apply_string v script))
         with Xu.Apply_error _ -> () (* same script fails the same way *));
        (match Up.check_integrity t with
        | Ok () -> ()
        | Error m -> QCheck2.Test.fail_report m);
        Xml.Xml_serialize.to_string (Ser.to_dom (Testsupport.view t))
      in
      let reference = run (12, 1.0) in
      List.for_all
        (fun g -> String.equal reference (run g))
        [ (1, 1.0); (2, 0.5); (3, 0.8); (5, 0.3) ])

(* Commands run in document order of their targets even as pres shift. *)
let test_pre_shifts_between_targets () =
  let _, _, v =
    apply_to
      {|<xupdate:insert-before select="//person">
          <pad><a/><b/><c/><d/><e/><f/><g/></pad>
        </xupdate:insert-before>|}
  in
  (* each pad (8 nodes) forces page overflows; all three persons must still
     be directly preceded by their own pad *)
  Alcotest.(check int) "three pads" 3 (List.length (E.parse_eval v "//pad"));
  Alcotest.(check int) "pads precede persons" 3
    (List.length (E.parse_eval v "//pad/following-sibling::person"))

let () =
  Alcotest.run "xupdate"
    [ ( "parse",
        [ Alcotest.test_case "commands" `Quick test_parse_commands;
          Alcotest.test_case "constructors" `Quick test_parse_constructors;
          Alcotest.test_case "errors" `Quick test_parse_errors ] );
      ( "apply",
        [ Alcotest.test_case "paper append example" `Quick test_paper_append_example;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "remove nested selection" `Quick test_remove_nested_selection;
          Alcotest.test_case "remove attributes" `Quick test_remove_attribute;
          Alcotest.test_case "insert-before multi-target" `Quick
            test_insert_before_multi_target;
          Alcotest.test_case "insert-after" `Quick test_insert_after;
          Alcotest.test_case "append child position" `Quick test_append_with_child_position;
          Alcotest.test_case "append attribute" `Quick test_append_attribute_constructor;
          Alcotest.test_case "update text/element/attr" `Quick
            test_update_text_and_element_and_attr;
          Alcotest.test_case "apply errors" `Quick test_apply_errors;
          Alcotest.test_case "pre shifts between targets" `Quick
            test_pre_shifts_between_targets;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename errors" `Quick test_rename_errors;
          Testsupport.qcheck_case prop_geometry_equivalence ] ) ]
