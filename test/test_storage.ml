(* Storage schema tests: shredding, the pre view, free-run bookkeeping,
   node identity, attribute indirection, round-trips, integrity. *)

module Dom = Xml.Dom
module Qname = Xml.Qname
module Ro = Core.Schema_ro
module Up = Core.Schema_up
module View = Core.View
module Ser_ro = Core.Node_serialize.Make (Core.Schema_ro)
module Ser_up = Core.Node_serialize.Make (Core.Schema_up)

let doc = Alcotest.testable Dom.pp Dom.equal

let paper = Testsupport.paper_doc

let small = Testsupport.small_doc

(* ---------------------------------------------------------- read-only -- *)

let test_ro_paper_encoding () =
  let t = Ro.of_dom paper in
  Alcotest.(check int) "extent" 10 (Ro.extent t);
  let expected_size = [ 9; 3; 2; 0; 0; 4; 0; 2; 0; 0 ] in
  let expected_level = [ 0; 1; 2; 3; 3; 1; 2; 2; 3; 3 ] in
  List.iteri
    (fun pre s -> Alcotest.(check int) (Printf.sprintf "size %d" pre) s (Ro.size t pre))
    expected_size;
  List.iteri
    (fun pre l -> Alcotest.(check int) (Printf.sprintf "level %d" pre) l (Ro.level t pre))
    expected_level;
  Alcotest.(check string) "names" "a"
    (Qname.to_string (Ro.qname t 0));
  Alcotest.(check string) "g" "g" (Qname.to_string (Ro.qname t 6))

let test_ro_matches_dom_psl () =
  let t = Ro.of_dom small in
  let psl = Dom.pre_size_level small in
  Array.iter
    (fun (pre, size, level) ->
      Alcotest.(check int) "size" size (Ro.size t pre);
      Alcotest.(check int) "level" level (Ro.level t pre))
    psl

let test_ro_kinds_and_content () =
  let t = Ro.of_dom small in
  (* last two children of site are a comment and a PI *)
  let n = Ro.extent t in
  let kinds = List.init n (fun pre -> Ro.kind t pre) in
  Alcotest.(check bool) "has comment" true (List.mem Core.Kind.Comment kinds);
  Alcotest.(check bool) "has pi" true (List.mem Core.Kind.Pi kinds);
  let ci = ref (-1) and pii = ref (-1) in
  List.iteri
    (fun i k ->
      if k = Core.Kind.Comment then ci := i;
      if k = Core.Kind.Pi then pii := i)
    kinds;
  Alcotest.(check string) "comment body" " inventory snapshot " (Ro.content t !ci);
  Alcotest.(check string) "pi target" "audit" (Ro.pi_target t !pii);
  Alcotest.(check string) "pi data" "date=\"2005-04-01\"" (Ro.content t !pii)

let test_ro_attributes () =
  let t = Ro.of_dom small in
  (* person p1 is some element with attribute id=p1 *)
  let found = ref None in
  for pre = 0 to Ro.extent t - 1 do
    if Ro.kind t pre = Core.Kind.Element && Ro.attribute t pre (Qname.make "id") = Some "p1"
    then found := Some pre
  done;
  match !found with
  | None -> Alcotest.fail "no element with id=p1"
  | Some pre ->
    Alcotest.(check string) "element name" "person" (Qname.to_string (Ro.qname t pre));
    Alcotest.(check int) "attr count" 1 (List.length (Ro.attributes t pre));
    Alcotest.(check (option string)) "missing attr" None
      (Ro.attribute t pre (Qname.make "nope"))

let test_ro_roundtrip () =
  Alcotest.check doc "paper" paper (Ser_ro.to_dom (Ro.of_dom paper));
  Alcotest.check doc "small" small (Ser_ro.to_dom (Ro.of_dom small))

(* ---------------------------------------------------------- updateable -- *)

let up_of ?(page_bits = 3) ?(fill = 0.75) d = Up.of_dom ~page_bits ~fill d

let check_integrity t =
  match Up.check_integrity t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "integrity: %s" m

let test_up_shred_geometry () =
  let t = up_of ~page_bits:3 ~fill:0.75 paper in
  (* 10 nodes, 6 used per page -> 2 pages of 8 *)
  Alcotest.(check int) "pages" 2 (Up.npages t);
  Alcotest.(check int) "extent" 16 (Up.extent t);
  Alcotest.(check int) "live nodes" 10 (Up.node_count t);
  Alcotest.(check bool) "identity map at shred" true
    (Column.Pagemap.is_identity (Up.pagemap t));
  check_integrity t

let test_up_free_runs () =
  let t = up_of ~page_bits:3 ~fill:0.5 paper in
  (* 4 used per page; slots 4..7 of each page unused with run sizes 3,2,1,0 *)
  let v = Testsupport.view t in
  Alcotest.(check bool) "slot 4 unused" false (View.is_used v 4);
  Alcotest.(check int) "run length at 4" 3 (Up.size t 4);
  Alcotest.(check int) "run length at 7" 0 (Up.size t 7);
  Alcotest.(check int) "next_used skips run" 8 (Up.next_used t 4);
  Alcotest.(check int) "next_used on used" 3 (Up.next_used t 3);
  Alcotest.(check int) "prev_used skips run" 3 (View.prev_used v 7);
  check_integrity t

let test_up_node_ids_equal_pos_at_shred () =
  let t = up_of paper in
  let pre = ref (Up.next_used t 0) in
  while !pre < Up.extent t do
    let id = Up.node_at t ~pre:!pre in
    Alcotest.(check int) "node = pos at shred" (Up.pos_of_pre t !pre) id;
    Alcotest.(check (option int)) "pre_of_node inverts" (Some !pre) (Up.pre_of_node t id);
    pre := Up.next_used t (!pre + 1)
  done

let test_up_view_matches_ro () =
  (* The pre view of the up schema enumerates the same logical document as
     the ro schema, just with gaps. *)
  let ro = Ro.of_dom small in
  let up = up_of ~page_bits:2 ~fill:0.5 small in
  let pres = ref [] in
  let pre = ref (Up.next_used up 0) in
  while !pre < Up.extent up do
    pres := !pre :: !pres;
    pre := Up.next_used up (!pre + 1)
  done;
  let pres = List.rev !pres in
  Alcotest.(check int) "same node count" (Ro.extent ro) (List.length pres);
  List.iteri
    (fun ord pre ->
      Alcotest.(check int) "same size" (Ro.size ro ord) (Up.size up pre);
      Alcotest.(check int) "same level" (Ro.level ro ord) (Up.level up pre);
      Alcotest.(check bool) "same kind" true (Ro.kind ro ord = Up.kind up pre))
    pres

let test_up_attributes_via_node () =
  let t = up_of small in
  let found = ref None in
  let pre = ref (Up.next_used t 0) in
  while !pre < Up.extent t do
    if Up.kind t !pre = Core.Kind.Element
       && Up.attribute t !pre (Qname.make "id") = Some "i0"
    then found := Some !pre;
    pre := Up.next_used t (!pre + 1)
  done;
  match !found with
  | None -> Alcotest.fail "no element with id=i0"
  | Some pre ->
    Alcotest.(check string) "item" "item" (Qname.to_string (Up.qname t pre))

let test_up_roundtrip_various_geometry () =
  List.iter
    (fun (bits, fill) ->
      let t = Up.of_dom ~page_bits:bits ~fill small in
      check_integrity t;
      Alcotest.check doc
        (Printf.sprintf "roundtrip bits=%d fill=%.2f" bits fill)
        small (Ser_up.to_dom t))
    [ (1, 1.0); (2, 0.5); (3, 0.8); (6, 0.9); (12, 0.8); (3, 0.1) ]

let test_up_stats_overhead () =
  let ro = Ro.of_dom small in
  let up = up_of ~page_bits:3 ~fill:0.8 small in
  let sro = Ro.stats ro and sup = Up.stats up in
  Alcotest.(check int) "same live nodes" sro.Ro.nodes sup.Up.nodes;
  Alcotest.(check bool) "up takes more space" true
    (sup.Up.approx_bytes > sro.Ro.approx_bytes);
  Alcotest.(check bool) "slack slots exist" true (sup.Up.slots > sup.Up.nodes)

let test_up_fresh_node_recycling () =
  let t = up_of ~page_bits:3 ~fill:0.5 paper in
  let id1 = Up.fresh_node_id t in
  (* shredded slack ids are recyclable, so no growth *)
  Alcotest.(check bool) "recycled id within table" true (id1 < Up.node_ids t);
  Up.free_node_id t id1;
  let id2 = Up.fresh_node_id t in
  Alcotest.(check int) "LIFO recycling" id1 id2

let test_up_set_pagemap_guard () =
  let t = up_of paper in
  Alcotest.check_raises "geometry mismatch"
    (Invalid_argument "Schema_up.set_pagemap: page geometry mismatch") (fun () ->
      Up.set_pagemap t (Column.Pagemap.create ~bits:(Up.page_bits t)))

let test_up_skip_edges () =
  (* crafted geometries: empty interior pages, holes from deletes, full pages *)
  let module U = Core.Update in
  let t = up_of ~page_bits:2 ~fill:1.0 (Xml.Xml_parser.parse
            "<r><a/><b/><c/><d/><e/><f/><g/></r>") in
  (* 8 nodes on pages of 4, both full *)
  Alcotest.(check int) "full page: next_used identity" 5 (Up.next_used t 5);
  Alcotest.(check int) "full page: prev_used identity" 5
    (View.prev_used (Testsupport.view t) 5);
  (* delete b..f (pres 2..6): page 1 becomes fully empty, page 0 gets a hole *)
  Core.Txn.with_write (Core.Txn.manager t) (fun w ->
      List.iter
        (fun name ->
          let module E = Core.Engine.Make (Core.View) in
          match E.parse_eval w (Printf.sprintf "//%s" name) with
          | [ E.Node pre ] -> U.delete w ~pre
          | _ -> Alcotest.fail name)
        [ "b"; "c"; "d"; "e"; "f" ]);
  check_integrity t;
  (* view now: r(0) a(1) _ _ | _ _ _ _ (empty page) | g somewhere *)
  let v = Testsupport.view t in
  let g =
    let module E = Core.Engine.Make (Core.View) in
    match E.parse_eval v "//g" with
    | [ E.Node pre ] -> pre
    | _ -> Alcotest.fail "g"
  in
  Alcotest.(check int) "next_used skips hole + empty page" g (Up.next_used t 2);
  Alcotest.(check int) "prev_used skips empty page backwards" 1 (View.prev_used v (g - 1));
  Alcotest.(check int) "prev_used from extent end" g (View.prev_used v (View.extent v - 1));
  (* boundary conventions *)
  Alcotest.(check int) "next_used at extent" (Up.extent t) (Up.next_used t (Up.extent t));
  Alcotest.(check int) "prev_used below zero" 0 (View.prev_used v 0)

let prop_up_roundtrip =
  QCheck2.Test.make ~name:"up-schema shred/serialise roundtrip (random docs)"
    ~count:200 ~print:Testsupport.print_doc Testsupport.gen_doc (fun d ->
      List.for_all
        (fun (bits, fill) ->
          let t = Up.of_dom ~page_bits:bits ~fill d in
          (match Up.check_integrity t with
          | Ok () -> true
          | Error m -> QCheck2.Test.fail_report m)
          && Dom.equal d (Ser_up.to_dom t))
        [ (2, 0.5); (4, 0.8) ])

let prop_ro_roundtrip =
  QCheck2.Test.make ~name:"ro-schema shred/serialise roundtrip (random docs)"
    ~count:200 ~print:Testsupport.print_doc Testsupport.gen_doc (fun d ->
      Dom.equal d (Ser_ro.to_dom (Ro.of_dom d)))

let () =
  Alcotest.run "storage"
    [ ( "schema_ro",
        [ Alcotest.test_case "paper figure 2 encoding" `Quick test_ro_paper_encoding;
          Alcotest.test_case "matches DOM pre/size/level" `Quick test_ro_matches_dom_psl;
          Alcotest.test_case "kinds and content" `Quick test_ro_kinds_and_content;
          Alcotest.test_case "attributes by pre" `Quick test_ro_attributes;
          Alcotest.test_case "roundtrip" `Quick test_ro_roundtrip;
          Testsupport.qcheck_case prop_ro_roundtrip ] );
      ( "schema_up",
        [ Alcotest.test_case "shred geometry" `Quick test_up_shred_geometry;
          Alcotest.test_case "free runs" `Quick test_up_free_runs;
          Alcotest.test_case "node ids = pos at shred" `Quick test_up_node_ids_equal_pos_at_shred;
          Alcotest.test_case "view matches ro" `Quick test_up_view_matches_ro;
          Alcotest.test_case "attribute via node id" `Quick test_up_attributes_via_node;
          Alcotest.test_case "roundtrip across geometries" `Quick test_up_roundtrip_various_geometry;
          Alcotest.test_case "storage overhead" `Quick test_up_stats_overhead;
          Alcotest.test_case "node id recycling" `Quick test_up_fresh_node_recycling;
          Alcotest.test_case "set_pagemap guard" `Quick test_up_set_pagemap_guard;
          Alcotest.test_case "skip edges" `Quick test_up_skip_edges;
          Testsupport.qcheck_case prop_up_roundtrip ] ) ]
