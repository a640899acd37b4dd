(* Baseline tests: the naive shifting schema must agree with the read-only
   schema on queries and with the DOM oracle on updates (while paying O(N));
   ORDPATH labels must preserve order, level and ancestorship, and degenerate
   under repeated same-point inserts. *)

module Dom = Xml.Dom
module P = Xml.Xml_parser
module Ro = Core.Schema_ro
module Naive = Baseline.Schema_naive
module Ord = Baseline.Ordpath
module E_ro = Core.Engine.Make (Core.Schema_ro)
module E_nv = Core.Engine.Make (Baseline.Schema_naive)
module Ser_nv = Core.Node_serialize.Make (Baseline.Schema_naive)

let doc = Alcotest.testable Dom.pp Dom.equal

(* -------------------------------------------------------------- naive -- *)

let test_naive_queries_match_ro () =
  let dd = Testsupport.small_doc in
  let ro = Ro.of_dom dd and nv = Naive.of_dom dd in
  List.iter
    (fun src ->
      let a = List.map (E_ro.item_string ro) (E_ro.parse_eval ro src) in
      let b = List.map (E_nv.item_string nv) (E_nv.parse_eval nv src) in
      Alcotest.(check (list string)) src a b)
    [ "//person/@id"; "/site/items/item[price > 10]/name"; "//name/text()";
      "//comment()"; "/site/*" ]

let test_naive_insert_delete () =
  let nv = Naive.of_dom (P.parse "<r><a/><b><c/></b><d/></r>") in
  (* insert <x><y/></x> as first child of b (b at pre 2, hole at pre 3) *)
  Naive.insert nv ~parent_pre:2 ~at_pre:3 (P.parse_fragment "<x><y/></x>");
  Alcotest.check doc "insert" (P.parse "<r><a/><b><x><y/></x><c/></b><d/></r>")
    (Ser_nv.to_dom nv);
  Alcotest.(check bool) "shift work recorded" true (Naive.last_shifted nv > 0);
  Alcotest.(check int) "root size" 6 (Naive.size nv 0);
  Alcotest.(check int) "b size" 3 (Naive.size nv 2);
  (* delete the inserted subtree *)
  Naive.delete nv ~pre:3;
  Alcotest.check doc "delete" (P.parse "<r><a/><b><c/></b><d/></r>") (Ser_nv.to_dom nv)

let test_naive_attr_maintenance () =
  let nv = Naive.of_dom (P.parse "<r><a k='1'/><b k='2'/></r>") in
  (* inserting before b shifts b's pre; its attribute must follow *)
  Naive.insert nv ~parent_pre:0 ~at_pre:2 (P.parse_fragment "<mid/>");
  Alcotest.(check (option string)) "b attr found after shift" (Some "2")
    (Naive.attribute nv 3 (Xml.Qname.make "k"));
  Alcotest.check doc "structure" (P.parse "<r><a k='1'/><mid/><b k='2'/></r>")
    (Ser_nv.to_dom nv)

let test_naive_cost_grows_with_document () =
  let wide n =
    Dom.doc
      { Dom.name = Xml.Qname.make "r";
        attrs = [];
        children = List.init n (fun _ -> Dom.element "e") }
  in
  let cost n =
    let nv = Naive.of_dom (wide n) in
    Naive.insert nv ~parent_pre:0 ~at_pre:1 (P.parse_fragment "<probe/>");
    Naive.last_shifted nv
  in
  let c1 = cost 100 and c2 = cost 1000 in
  Alcotest.(check bool)
    (Printf.sprintf "O(N): %d -> %d" c1 c2)
    true
    (c2 > 8 * c1)

(* A seeded random sequence of inserts and deletes, mirrored on the DOM.
   The naive store must then hold exactly the table a fresh read-only shred
   of the resulting document holds (its runs and its per-node answers, with
   dictionary ids decoded, since dead pool entries shift them), and every
   update must report the shifting strawman's cost: the tuples after the
   update point, plus the attribute owner references rewritten, plus, on
   insert, the attribute rows each new row is inserted in front of. *)
module Dump (S : Core.Storage_intf.S) = struct
  let label t pre =
    match S.kind t pre with
    | Core.Kind.Element -> Xml.Qname.to_string (S.qname t pre)
    | Core.Kind.Pi -> S.pi_target t pre ^ " " ^ S.content t pre
    | Core.Kind.Text | Core.Kind.Comment -> S.content t pre

  let runs t =
    List.rev
      (S.fold_runs t ~lo:0 ~hi:(S.extent t) ~init:[]
         (fun acc (r : Core.Storage_intf.run) ->
           let acc = ref acc in
           for i = r.phys to r.phys + r.len - 1 do
             let pre = Core.Storage_intf.run_pre r i in
             acc :=
               Printf.sprintf "%d: level %d size %d kind %d name=id %b %s" pre
                 r.level.(i) r.size.(i) r.kind.(i)
                 (r.name.(i) = S.name_id t pre)
                 (label t pre)
               :: !acc
           done;
           !acc))

  let nodes t =
    let rec go pre acc =
      if pre >= S.extent t then List.rev acc
      else
        let attrs = if S.kind t pre = Core.Kind.Element then S.attributes t pre else [] in
        let by_id =
          List.map
            (fun (q, _) ->
              let by_name = S.attribute t pre q in
              (by_name, Option.bind (S.qn_id t q) (S.attribute_id t pre)))
            attrs
        in
        let line =
          Printf.sprintf "%d: level %d size %d %s [%s] %b" pre (S.level t pre)
            (S.size t pre) (label t pre)
            (String.concat "; "
               (List.map (fun (q, v) -> Xml.Qname.to_string q ^ "=" ^ v) attrs))
            (List.for_all2 (fun (_, v) (a, b) -> a = Some v && b = Some v) attrs by_id)
        in
        go (S.next_used t (pre + 1)) (line :: acc)
    in
    go (S.next_used t 0) []
end

module Dump_ro = Dump (Core.Schema_ro)
module Dump_nv = Dump (Baseline.Schema_naive)

type naive_op = Ins of int * int * Dom.node | Del of int

let gen_naive_ops =
  let open QCheck2.Gen in
  list_size (int_range 1 8)
    (frequency
       [ ( 3,
           let* parent = nat and* at = nat and* n = Testsupport.gen_content_node in
           return (Ins (parent, at, n)) );
         (2, map (fun k -> Del k) nat) ])

let print_naive_ops (d, ops) =
  Testsupport.print_doc d ^ " / "
  ^ String.concat "; "
      (List.map
         (function
           | Ins (p, at, n) ->
             let wrap = { Dom.name = Xml.Qname.make "f"; attrs = []; children = [ n ] } in
             Printf.sprintf "ins %d %d %s" p at
               (Xml.Xml_serialize.to_string (Dom.doc wrap))
           | Del k -> Printf.sprintf "del %d" k)
         ops)

(* Attribute rows owned at or after [pre] in the document. *)
let attrs_from d pre =
  List.fold_left
    (fun (i, acc) (_, n) ->
      match n with
      | Dom.Element e when i >= pre -> (i + 1, acc + List.length e.Dom.attrs)
      | _ -> (i + 1, acc))
    (0, 0) (Dom.nodes_pre_order d)
  |> snd

(* Attribute rows of a subtree. *)
let rec attr_rows (n : Dom.node) =
  match n with
  | Dom.Element e ->
    List.fold_left (fun a c -> a + attr_rows c) (List.length e.Dom.attrs) e.children
  | Dom.Text _ | Dom.Comment _ | Dom.Pi _ -> 0

let prop_naive_matches_fresh_ro =
  QCheck2.Test.make ~name:"naive updates = fresh ro shred, at the strawman's cost"
    ~count:200 ~print:print_naive_ops
    QCheck2.Gen.(pair Testsupport.gen_doc gen_naive_ops)
    (fun (d, ops) ->
      let nv = Naive.of_dom d in
      let apply d op =
        let nodes = Array.of_list (Dom.nodes_pre_order d) in
        let count = Array.length nodes in
        match op with
        | Ins (pick, at, node) ->
          let elements =
            List.filter
              (fun i -> match snd nodes.(i) with Dom.Element _ -> true | _ -> false)
              (List.init count Fun.id)
          in
          let parent = List.nth elements (pick mod List.length elements) in
          let path = Testsupport.path_of_ordinal d parent in
          let kids = match snd nodes.(parent) with Dom.Element e -> e.children | _ -> [] in
          let at = at mod (List.length kids + 1) in
          let at_pre =
            List.fold_left
              (fun pre k -> pre + 1 + Dom.subtree_size k)
              (parent + 1) (List.filteri (fun i _ -> i < at) kids)
          in
          Naive.insert nv ~parent_pre:parent ~at_pre [ node ];
          let moved = attrs_from d at_pre in
          let expect = count - at_pre + ((1 + attr_rows node) * moved) in
          (Dom.insert_children d path ~at [ node ], expect)
        | Del _ when count = 1 -> (d, Naive.last_shifted nv)
        | Del k ->
          let pre = 1 + (k mod (count - 1)) in
          let m = 1 + Dom.subtree_size (snd nodes.(pre)) in
          Naive.delete nv ~pre;
          let expect = count - pre - m + attrs_from d (pre + m) in
          (Dom.remove_at d (Testsupport.path_of_ordinal d pre), expect)
      in
      let d =
        List.fold_left
          (fun d op ->
            let d, expect = apply d op in
            if Naive.last_shifted nv <> expect then
              QCheck2.Test.fail_reportf "shifted %d, expected %d"
                (Naive.last_shifted nv) expect;
            d)
          d ops
      in
      let ro = Ro.of_dom d in
      if not (Dom.equal d (Ser_nv.to_dom nv)) then
        QCheck2.Test.fail_report "serialised store differs from the DOM";
      Dump_nv.runs nv = Dump_ro.runs ro && Dump_nv.nodes nv = Dump_ro.nodes ro)

(* --------------------------------------------------------------- btree -- *)

module Bt = Baseline.Schema_btree
module E_bt = Core.Engine.Make (Baseline.Schema_btree)
module Ser_bt = Core.Node_serialize.Make (Baseline.Schema_btree)
module Q_ro = Xmark.Queries.Make (Core.Schema_ro)
module Q_bt = Xmark.Queries.Make (Baseline.Schema_btree)

let test_btree_roundtrip () =
  List.iter
    (fun d ->
      let bt = Bt.of_dom ~page_bits:3 ~fill:0.75 d in
      Alcotest.check doc "roundtrip" d (Ser_bt.to_dom bt))
    [ Testsupport.paper_doc; Testsupport.small_doc ]

let test_btree_queries_match () =
  let d = Testsupport.small_doc in
  let ro = Ro.of_dom d and bt = Bt.of_dom ~page_bits:3 ~fill:0.6 d in
  List.iter
    (fun src ->
      let a = List.map (E_ro.item_string ro) (E_ro.parse_eval ro src) in
      let b = List.map (E_bt.item_string bt) (E_bt.parse_eval bt src) in
      Alcotest.(check (list string)) src a b)
    [ "//person/@id"; "/site/items/item[price > 10]/name"; "//name/text()";
      "//comment()"; "//desc/b"; "/site/people/person[last()]/name" ]

let test_btree_xmark_agreement () =
  let d = Xmark.Gen.of_scale 0.001 in
  let ro = Ro.of_dom d and bt = Bt.of_dom ~fill:0.8 d in
  let a = Q_ro.run_all ro and b = Q_bt.run_all bt in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "Q%d" (i + 1)) true (r = b.(i)))
    a

let test_btree_counts_lookups () =
  let bt = Bt.of_dom ~page_bits:3 ~fill:0.75 Testsupport.small_doc in
  let before = Bt.lookups bt in
  ignore (E_bt.parse_eval bt "//name");
  Alcotest.(check bool) "descents recorded" true (Bt.lookups bt > before + 10)

(* ------------------------------------------------------------- ordpath -- *)

let test_ordpath_initial_labels () =
  let labels = Ord.label_tree Testsupport.paper_doc in
  Alcotest.(check int) "ten labels" 10 (List.length labels);
  let sorted = List.sort (fun (a, _) (b, _) -> Ord.compare a b) labels in
  Alcotest.(check bool) "document order = label order" true (sorted = labels);
  (* levels agree with the DOM *)
  let psl = Dom.pre_size_level Testsupport.paper_doc in
  List.iteri
    (fun i (l, lvl) ->
      let _, _, expect = psl.(i) in
      Alcotest.(check int) (Printf.sprintf "level %d" i) expect lvl;
      Alcotest.(check int) "level from label" expect (Ord.level l))
    labels

let test_ordpath_ancestor () =
  let a = Ord.root in
  let b = Ord.child a 2 in
  let c = Ord.child b 1 in
  Alcotest.(check bool) "root anc c" true (Ord.is_ancestor ~ancestor:a c);
  Alcotest.(check bool) "b anc c" true (Ord.is_ancestor ~ancestor:b c);
  Alcotest.(check bool) "c not anc b" false (Ord.is_ancestor ~ancestor:c b);
  Alcotest.(check bool) "not self" false (Ord.is_ancestor ~ancestor:b b)

let test_ordpath_between_properties () =
  let a = Ord.child Ord.root 1 and b = Ord.child Ord.root 2 in
  let x = Ord.between a b in
  Alcotest.(check bool) "a < x" true (Ord.compare a x < 0);
  Alcotest.(check bool) "x < b" true (Ord.compare x b < 0);
  Alcotest.(check int) "sibling level" (Ord.level a) (Ord.level x);
  let before = Ord.insert_before a in
  Alcotest.(check bool) "before < a" true (Ord.compare before a < 0);
  Alcotest.(check int) "before level" (Ord.level a) (Ord.level before);
  let after = Ord.insert_after b in
  Alcotest.(check bool) "b < after" true (Ord.compare b after < 0);
  Alcotest.check_raises "unordered bounds"
    (Invalid_argument "Ordpath.between: bounds not ordered (1.3 >= 1.1)") (fun () ->
      ignore (Ord.between b a))

let prop_ordpath_repeated_between =
  QCheck2.Test.make ~name:"between stays ordered and leveled under iteration"
    ~count:100
    QCheck2.Gen.(int_range 10 120)
    (fun n ->
      let a = ref (Ord.child Ord.root 1) and b = ref (Ord.child Ord.root 2) in
      let ok = ref true in
      for i = 1 to n do
        let x = Ord.between !a !b in
        if not (Ord.compare !a x < 0 && Ord.compare x !b < 0) then ok := false;
        if Ord.level x <> Ord.level !a then ok := false;
        (* alternate which side tightens: worst-case degeneration *)
        if i land 1 = 0 then a := x else b := x
      done;
      !ok)

let test_ordpath_degenerates () =
  (* repeated inserts between the two freshest labels (interval nesting) grow
     the label without bound; the paper's fixed-size node ids stay one
     machine word *)
  let a = ref (Ord.child Ord.root 1) and b = ref (Ord.child Ord.root 2) in
  let last = ref !a in
  for i = 1 to 64 do
    let x = Ord.between !a !b in
    if i land 1 = 0 then a := x else b := x;
    last := x
  done;
  Alcotest.(check bool)
    (Printf.sprintf "label grew to %d components (%d bits)" (Ord.length !last)
       (Ord.bit_length !last))
    true
    (Ord.bit_length !last > 128)

let () =
  Alcotest.run "baseline"
    [ ( "naive",
        [ Alcotest.test_case "queries match ro" `Quick test_naive_queries_match_ro;
          Alcotest.test_case "insert/delete" `Quick test_naive_insert_delete;
          Alcotest.test_case "attr table maintenance" `Quick test_naive_attr_maintenance;
          Alcotest.test_case "cost grows with N" `Quick test_naive_cost_grows_with_document;
          Testsupport.qcheck_case prop_naive_matches_fresh_ro ] );
      ( "btree (SQL host)",
        [ Alcotest.test_case "roundtrip" `Quick test_btree_roundtrip;
          Alcotest.test_case "queries match ro" `Quick test_btree_queries_match;
          Alcotest.test_case "xmark Q1-Q20 agree" `Quick test_btree_xmark_agreement;
          Alcotest.test_case "lookup counter" `Quick test_btree_counts_lookups ] );
      ( "ordpath",
        [ Alcotest.test_case "initial labels" `Quick test_ordpath_initial_labels;
          Alcotest.test_case "ancestor" `Quick test_ordpath_ancestor;
          Alcotest.test_case "between properties" `Quick test_ordpath_between_properties;
          Alcotest.test_case "degeneration" `Quick test_ordpath_degenerates;
          Testsupport.qcheck_case prop_ordpath_repeated_between ] ) ]
