(* Staircase join and engine tests: every axis against the naive DOM oracle,
   on both schemas, on fixed and random documents; predicate evaluation. *)

module Dom = Xml.Dom
module Ro = Core.Schema_ro
module Up = Core.Schema_up
module Sj_ro = Core.Staircase.Make (Core.Schema_ro)
module Sj_up = Core.Staircase.Make (Core.Schema_up)
module E_ro = Core.Engine.Make (Core.Schema_ro)
module E_up = Core.Engine.Make (Core.Schema_up)
module E_view = Core.Engine.Make (Core.View)
module Ord_ro = Testsupport.Ord (Core.Schema_ro)
module Ord_up = Testsupport.Ord (Core.Schema_up)
module Ord_view = Testsupport.Ord (Core.View)

let all_axes : Xpath.Xpath_ast.axis list =
  [ Self; Child; Descendant; Descendant_or_self; Parent; Ancestor;
    Ancestor_or_self; Following; Preceding; Following_sibling; Preceding_sibling ]

let axis_str a = Xpath.Xpath_ast.axis_name a

(* Check one axis against the oracle, for every context node, on both
   schemas. Returns an error description instead of asserting so the
   property tests can reuse it. *)
let axes_against_oracle d =
  let o = Testsupport.oracle_of_doc d in
  let ro = Ro.of_dom d in
  let up = Up.of_dom ~page_bits:2 ~fill:0.6 d in
  let _, rev_ro = Ord_ro.mapping ro in
  let tbl_ro, _ = Ord_ro.mapping ro in
  let tbl_up, rev_up = Ord_up.mapping up in
  let problems = ref [] in
  for i = 0 to o.Testsupport.count - 1 do
    List.iter
      (fun axis ->
        let expect = List.sort compare (Testsupport.oracle_axis o axis i) in
        let got_ro =
          List.sort compare
            (List.map
               (fun p -> Hashtbl.find tbl_ro p)
               (Sj_ro.axis_of_one ro axis (Hashtbl.find rev_ro i)))
        in
        let got_up =
          List.sort compare
            (List.map
               (fun p -> Hashtbl.find tbl_up p)
               (Sj_up.axis_of_one up axis (Hashtbl.find rev_up i)))
        in
        if got_ro <> expect then
          problems :=
            Printf.sprintf "ro %s(%d): got [%s] want [%s]" (axis_str axis) i
              (String.concat ";" (List.map string_of_int got_ro))
              (String.concat ";" (List.map string_of_int expect))
            :: !problems;
        if got_up <> expect then
          problems :=
            Printf.sprintf "up %s(%d): got [%s] want [%s]" (axis_str axis) i
              (String.concat ";" (List.map string_of_int got_up))
              (String.concat ";" (List.map string_of_int expect))
            :: !problems)
      all_axes
  done;
  !problems

let test_axes_paper () =
  match axes_against_oracle Testsupport.paper_doc with
  | [] -> ()
  | p :: _ -> Alcotest.fail p

let test_axes_small () =
  match axes_against_oracle Testsupport.small_doc with
  | [] -> ()
  | p :: _ -> Alcotest.fail p

let prop_axes_random =
  QCheck2.Test.make ~name:"all axes match the DOM oracle on random documents"
    ~count:120 ~print:Testsupport.print_doc Testsupport.gen_doc (fun d ->
      match axes_against_oracle d with
      | [] -> true
      | p :: _ -> QCheck2.Test.fail_report p)

(* Context-set staircase entry points (pruning paths). *)
let test_context_sets () =
  let up = Up.of_dom ~page_bits:2 ~fill:0.6 Testsupport.paper_doc in
  let tbl, rev = Ord_up.mapping up in
  let pre i = Hashtbl.find rev i in
  let ords ps = List.sort compare (List.map (Hashtbl.find tbl) ps) in
  (* paper tree: a(0) b(1) c(2) d(3) e(4) f(5) g(6) h(7) i(8) j(9) *)
  Alcotest.(check (list int)) "descendants with pruning"
    [ 3; 4 ]
    (ords (Sj_up.descendants up [ pre 2; pre 3 ]));
  Alcotest.(check (list int)) "descendants disjoint contexts"
    [ 2; 3; 4; 6; 7; 8; 9 ]
    (ords (Sj_up.descendants up [ pre 1; pre 5 ]));
  Alcotest.(check (list int)) "children union"
    [ 2; 6; 7 ]
    (ords (Sj_up.children up [ pre 1; pre 5 ]));
  Alcotest.(check (list int)) "ancestors union"
    [ 0; 1; 5 ]
    (ords (Sj_up.ancestors up [ pre 2; pre 6 ]));
  Alcotest.(check (list int)) "following from two contexts"
    [ 4; 5; 6; 7; 8; 9 ]
    (ords (Sj_up.following up [ pre 3; pre 2 ]));
  Alcotest.(check (list int)) "preceding of max context"
    [ 1; 2; 3; 4; 6 ]
    (ords (Sj_up.preceding up [ pre 3; pre 7 ]))

(* ------------------------------------------------------------- engine -- *)

let q t src = E_ro.parse_eval t src

let strings t items = List.map (E_ro.item_string t) items

let test_engine_basic_paths () =
  let t = Ro.of_dom Testsupport.small_doc in
  Alcotest.(check int) "people" 1 (List.length (q t "/site/people"));
  Alcotest.(check int) "persons" 3 (List.length (q t "/site/people/person"));
  Alcotest.(check int) "all names" 5 (List.length (q t "//name"));
  Alcotest.(check int) "wildcard" 2 (List.length (q t "/site/items/*"));
  Alcotest.(check (list string)) "names text"
    [ "Ada"; "Grace"; "Edsger" ]
    (strings t (q t "/site/people/person/name/text()"))

let test_engine_predicates () =
  let t = Ro.of_dom Testsupport.small_doc in
  Alcotest.(check (list string)) "attr predicate"
    [ "Grace" ]
    (strings t (q t "/site/people/person[@id='p1']/name"));
  Alcotest.(check (list string)) "position"
    [ "Ada" ]
    (strings t (q t "/site/people/person[1]/name"));
  Alcotest.(check (list string)) "last()"
    [ "Edsger" ]
    (strings t (q t "/site/people/person[last()]/name"));
  Alcotest.(check (list string)) "numeric comparison"
    [ "pump" ]
    (strings t (q t "/site/items/item[price > 10]/name"));
  Alcotest.(check (list string)) "exists"
    [ "Ada"; "Grace" ]
    (strings t (q t "/site/people/person[age]/name"));
  Alcotest.(check (list string)) "not(exists)"
    [ "Edsger" ]
    (strings t (q t "/site/people/person[not(age)]/name"));
  Alcotest.(check (list string)) "contains on string value"
    [ "i0" ]
    (List.map
       (fun it -> E_ro.item_string t it)
       (q t "/site/items/item[contains(desc, 'shiny')]/@id"));
  Alcotest.(check (list string)) "count()"
    [ "p2" ]
    (List.map
       (fun it -> E_ro.item_string t it)
       (q t "/site/people/person[count(*) = 1]/@id"));
  Alcotest.(check (list string)) "and / or"
    [ "Grace" ]
    (strings t (q t "/site/people/person[age and @id='p1']/name"));
  Alcotest.(check (list string)) "value inequality"
    [ "Ada"; "Edsger" ]
    (strings t (q t "/site/people/person[@id != 'p1']/name"))

let test_engine_attribute_axis () =
  let t = Ro.of_dom Testsupport.small_doc in
  (match q t "/site/items/item[1]/@id" with
  | [ E_ro.Attribute { qn; value; _ } ] ->
    Alcotest.(check string) "qn" "id" (Xml.Qname.to_string qn);
    Alcotest.(check string) "value" "i0" value
  | _ -> Alcotest.fail "expected one attribute item");
  Alcotest.(check int) "wildcard attrs" 3 (List.length (q t "//person/@*"))

let test_engine_string_value () =
  let t = Ro.of_dom Testsupport.small_doc in
  (* element string value concatenates descendant text *)
  match q t "/site/items/item[@id='i0']/desc" with
  | [ E_ro.Node pre ] ->
    Alcotest.(check string) "mixed content" "A shiny pump" (E_ro.string_value t pre)
  | _ -> Alcotest.fail "expected desc node"

let test_engine_both_schemas_agree () =
  let queries =
    [ "/site/people/person[@id='p0']/name/text()";
      "//item[price < 10]/name";
      "/site//name";
      "//person[2]/@id";
      "/site/items/item[last()]/name";
      "//desc/b";
      "/site/*[1]";
      "//comment()";
      "//processing-instruction()" ]
  in
  let ro = Ro.of_dom Testsupport.small_doc in
  let up = Up.of_dom ~page_bits:2 ~fill:0.5 Testsupport.small_doc in
  List.iter
    (fun src ->
      let sro =
        List.map (E_ro.item_string ro) (E_ro.parse_eval ro src)
      in
      let sup =
        List.map (E_up.item_string up) (E_up.parse_eval up src)
      in
      Alcotest.(check (list string)) src sro sup)
    queries

(* `//x` without positional predicates is evaluated as one fused descendant
   step, `//x[1]` as the parser's two steps. From the document node both
   select the root element's descendants and never the root itself (a known
   deviation from XPath 1.0, shared with the DOM oracle); an explicit
   descendant step from the document node does include the root. *)
let test_engine_dslash_root () =
  let d = Xml.Xml_parser.parse "<site><a><site/></a><b/></site>" in
  let ro = Ro.of_dom d in
  let up = Up.of_dom ~page_bits:2 ~fill:0.5 d in
  let oracle = Testsupport.Dom_eval.make d in
  List.iter
    (fun (src, want) ->
      let p = Xpath.Xpath_parser.parse src in
      let ords = List.map (function Testsupport.Dom_eval.N i -> i | A _ -> -1) in
      Alcotest.(check (list int)) (src ^ " (oracle)") want
        (ords (Testsupport.Dom_eval.eval oracle p));
      let nodes_ro = E_ro.eval_nodes ro p and nodes_up = E_up.eval_nodes up p in
      Alcotest.(check (list int)) (src ^ " (ro)") want (Ord_ro.ordinals ro nodes_ro);
      Alcotest.(check (list int)) (src ^ " (up)") want (Ord_up.ordinals up nodes_up))
    [ ("//site", [ 2 ]);
      ("//*", [ 1; 2; 3 ]);
      ("//site[1]", [ 2 ]);
      ("//*[1]", [ 1; 2 ]);
      ("/site//site", [ 2 ]);
      ("/site//site[last()]", [ 2 ]);
      ("/descendant::site", [ 0; 2 ]);
      ("/descendant-or-self::site", [ 0; 2 ]) ]

(* A name no dictionary holds is resolved once, when the path is compiled,
   and matches nothing: the attribute comparison and the child test select
   no candidate, and their negation keeps every one, on every storage and
   in the DOM evaluator alike. *)
let test_engine_unknown_names () =
  let d = Testsupport.small_doc in
  let ro = Ro.of_dom d in
  let up = Up.of_dom ~page_bits:2 ~fill:0.5 d in
  let view = Testsupport.view up in
  let oracle = Testsupport.Dom_eval.make d in
  let persons = List.length (E_ro.parse_eval ro "/site/people/person") in
  List.iter
    (fun (src, want) ->
      let p = Xpath.Xpath_parser.parse src in
      let expect =
        List.map
          (function Testsupport.Dom_eval.N i -> i | A _ -> -1)
          (Testsupport.Dom_eval.eval oracle p)
      in
      Alcotest.(check int) (src ^ " (oracle)") want (List.length expect);
      Alcotest.(check (list int)) (src ^ " (ro)") expect
        (Ord_ro.ordinals ro (E_ro.eval_nodes ro p));
      Alcotest.(check (list int)) (src ^ " (up)") expect
        (Ord_up.ordinals up (E_up.eval_nodes up p));
      Alcotest.(check (list int)) (src ^ " (view)") expect
        (Ord_view.ordinals view (E_view.eval_nodes view p)))
    [ ("/site/people/person[@nosuch='v']", 0);
      ("/site/people/person[nosuch]", 0);
      ("/site/people/person[not(@nosuch)]", persons);
      ("//person[@nosuch='v']", 0);
      ("//person[nosuch]", 0);
      ("//person[not(@nosuch)]", persons) ]

let test_engine_conveniences () =
  let t = Ro.of_dom Testsupport.small_doc in
  Alcotest.(check int) "count" 3 (E_ro.count t (Xpath.Xpath_parser.parse "//person"));
  Alcotest.(check (option string)) "eval_string first" (Some "Ada")
    (E_ro.eval_string t (Xpath.Xpath_parser.parse "//name/text()"));
  Alcotest.(check (option string)) "eval_string empty" None
    (E_ro.eval_string t (Xpath.Xpath_parser.parse "//nothing"));
  (* explicit context *)
  (match E_ro.parse_eval t "/site/items" with
  | [ E_ro.Node items ] ->
    Alcotest.(check int) "relative from context" 2
      (List.length
         (E_ro.eval_nodes t ~context:[ items ] (Xpath.Xpath_parser.parse "item")))
  | _ -> Alcotest.fail "items");
  (* attribute mid-path is rejected *)
  Alcotest.check_raises "attr mid-path"
    (Invalid_argument "Engine: attribute axis must be the final step") (fun () ->
      ignore (E_ro.parse_eval t "//@id/x"));
  (* eval_nodes refuses attribute results *)
  Alcotest.check_raises "eval_nodes on attrs"
    (Invalid_argument "Engine.eval_nodes: attribute result") (fun () ->
      ignore (E_ro.eval_nodes t (Xpath.Xpath_parser.parse "//person/@id")))

let test_kind_module () =
  List.iter
    (fun k ->
      Alcotest.(check bool) "roundtrip" true
        (Core.Kind.equal k (Core.Kind.of_int (Core.Kind.to_int k))))
    [ Core.Kind.Element; Core.Kind.Text; Core.Kind.Comment; Core.Kind.Pi ];
  Alcotest.check_raises "invalid" (Invalid_argument "Kind.of_int: 7") (fun () ->
      ignore (Core.Kind.of_int 7))

let test_qname_ordering_and_validation () =
  let open Xml.Qname in
  Alcotest.(check bool) "prefix orders first" true
    (compare (make ~prefix:"a" "z") (make ~prefix:"b" "a") < 0);
  Alcotest.(check bool) "local breaks ties" true
    (compare (make "a") (make "b") < 0);
  List.iter
    (fun bad ->
      match make bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Invalid_argument _ -> ())
    [ "has space"; "1leading"; "<angle"; "" ]

let prop_engine_schemas_agree =
  QCheck2.Test.make ~name:"ro and up schemas give identical query answers"
    ~count:100 ~print:Testsupport.print_doc Testsupport.gen_doc (fun d ->
      let ro = Ro.of_dom d in
      let up = Up.of_dom ~page_bits:2 ~fill:0.7 d in
      List.for_all
        (fun src ->
          let sro = List.map (E_ro.item_string ro) (E_ro.parse_eval ro src) in
          let sup = List.map (E_up.item_string up) (E_up.parse_eval up src) in
          sro = sup)
        [ "//a"; "//item/@id"; "//text()"; "/descendant::*[2]"; "//b/.."; "//c[1]" ])

let () =
  Alcotest.run "axes"
    [ ( "staircase",
        [ Alcotest.test_case "paper doc vs oracle" `Quick test_axes_paper;
          Alcotest.test_case "small doc vs oracle" `Quick test_axes_small;
          Alcotest.test_case "context sets and pruning" `Quick test_context_sets;
          Testsupport.qcheck_case prop_axes_random ] );
      ( "engine",
        [ Alcotest.test_case "basic paths" `Quick test_engine_basic_paths;
          Alcotest.test_case "predicates" `Quick test_engine_predicates;
          Alcotest.test_case "attribute axis" `Quick test_engine_attribute_axis;
          Alcotest.test_case "string value" `Quick test_engine_string_value;
          Alcotest.test_case "schemas agree" `Quick test_engine_both_schemas_agree;
          Alcotest.test_case "conveniences and errors" `Quick test_engine_conveniences;
          Alcotest.test_case "// from the document node" `Quick test_engine_dslash_root;
          Alcotest.test_case "unknown names" `Quick test_engine_unknown_names;
          Alcotest.test_case "kind module" `Quick test_kind_module;
          Alcotest.test_case "qname ordering/validation" `Quick
            test_qname_ordering_and_validation;
          Testsupport.qcheck_case prop_engine_schemas_agree ] ) ]
