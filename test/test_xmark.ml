(* XMark substrate tests: generator determinism and shape, Q1-Q20 agreement
   across schemas, workload churn. *)

module Dom = Xml.Dom
module Ro = Core.Schema_ro
module Up = Core.Schema_up
module Q_ro = Xmark.Queries.Make (Core.Schema_ro)
module Q_up = Xmark.Queries.Make (Core.Schema_up)
module E_ro = Core.Engine.Make (Core.Schema_ro)

let doc = Alcotest.testable Dom.pp Dom.equal

let scale = 0.002

let d = lazy (Xmark.Gen.of_scale scale)

let check_integrity t =
  match Up.check_integrity t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "integrity: %s" m

(* ----------------------------------------------------------- generator -- *)

let test_gen_deterministic () =
  Alcotest.check doc "same seed, same document" (Xmark.Gen.of_scale scale)
    (Xmark.Gen.of_scale scale);
  let other = Xmark.Gen.of_scale ~seed:7 scale in
  Alcotest.(check bool) "different seed, different document" false
    (Dom.equal (Lazy.force d) other)

let test_gen_cardinalities () =
  let cfg = Xmark.Gen.config_of_scale scale in
  let t = Ro.of_dom (Lazy.force d) in
  Alcotest.(check int) "items" cfg.Xmark.Gen.items
    (List.length (E_ro.parse_eval t "/site/regions/*/item"));
  Alcotest.(check int) "people" cfg.Xmark.Gen.people
    (List.length (E_ro.parse_eval t "/site/people/person"));
  Alcotest.(check int) "open auctions" cfg.Xmark.Gen.open_auctions
    (List.length (E_ro.parse_eval t "/site/open_auctions/open_auction"));
  Alcotest.(check int) "closed auctions" cfg.Xmark.Gen.closed_auctions
    (List.length (E_ro.parse_eval t "/site/closed_auctions/closed_auction"));
  Alcotest.(check int) "six regions" 6
    (List.length (E_ro.parse_eval t "/site/regions/*"))

let test_gen_wellformed () =
  let xml = Xml.Xml_serialize.to_string (Lazy.force d) in
  let reparsed = Xml.Xml_parser.parse xml in
  Alcotest.check doc "serialise/parse roundtrip" (Lazy.force d) reparsed

let test_gen_scaling () =
  let small = Dom.node_count (Xmark.Gen.of_scale 0.001) in
  let large = Dom.node_count (Xmark.Gen.of_scale 0.004) in
  Alcotest.(check bool)
    (Printf.sprintf "linear-ish growth (%d vs %d)" small large)
    true
    (large > 3 * small && large < 6 * small)

(* -------------------------------------------------------------- queries -- *)

let test_queries_agree_across_schemas () =
  let dd = Lazy.force d in
  let ro = Ro.of_dom dd in
  let up = Up.of_dom ~page_bits:6 ~fill:0.8 dd in
  let r_ro = Q_ro.run_all ro in
  let r_up = Q_up.run_all up in
  Array.iteri
    (fun i r ->
      Alcotest.(check int)
        (Printf.sprintf "Q%d cardinality" (i + 1))
        r.Xmark.Queries.cardinality r_up.(i).Xmark.Queries.cardinality;
      Alcotest.(check int)
        (Printf.sprintf "Q%d checksum" (i + 1))
        r.Xmark.Queries.checksum r_up.(i).Xmark.Queries.checksum)
    r_ro

let test_queries_sanity () =
  let dd = Lazy.force d in
  let cfg = Xmark.Gen.config_of_scale scale in
  let ro = Ro.of_dom dd in
  let q i = Q_ro.run ro i in
  Alcotest.(check int) "Q1 finds person0" 1 (q 1).Xmark.Queries.cardinality;
  Alcotest.(check bool) "Q2 bidders exist" true ((q 2).Xmark.Queries.cardinality > 0);
  Alcotest.(check int) "Q5 single aggregate" 1 (q 5).Xmark.Queries.cardinality;
  Alcotest.(check int) "Q6 counts items" 1 (q 6).Xmark.Queries.cardinality;
  Alcotest.(check int) "Q8 one row per person" cfg.Xmark.Gen.people
    (q 8).Xmark.Queries.cardinality;
  Alcotest.(check int) "Q18 one row per auction" cfg.Xmark.Gen.open_auctions
    (q 18).Xmark.Queries.cardinality;
  Alcotest.(check int) "Q19 sorts all items" cfg.Xmark.Gen.items
    (q 19).Xmark.Queries.cardinality;
  Alcotest.(check int) "Q20 four buckets" 4 (q 20).Xmark.Queries.cardinality;
  Alcotest.(check bool) "Q14 finds gold" true ((q 14).Xmark.Queries.cardinality > 0);
  (* every query has a name and description *)
  for i = 1 to Xmark.Queries.query_count do
    Alcotest.(check bool) "described" true (String.length (Xmark.Queries.description i) > 0);
    Alcotest.(check string) "named" (Printf.sprintf "Q%d" i) (Xmark.Queries.name i)
  done

(* ------------------------------------------------------------- workload -- *)

let test_churn () =
  let dd = Lazy.force d in
  let up = Up.of_dom ~page_bits:4 ~fill:0.9 dd in
  let items_before = (Q_up.run up 6).Xmark.Queries.checksum in
  let applied = Xmark.Workload.churn up ~ops:200 ~seed:42 in
  Alcotest.(check bool) "most ops applied" true (applied > 150);
  check_integrity up;
  (* items are untouched by bidder churn *)
  Alcotest.(check int) "Q6 unchanged" items_before (Q_up.run up 6).Xmark.Queries.checksum

let test_churn_xupdate_fragments () =
  let dd = Lazy.force d in
  let db = Core.Db.create ~page_bits:4 ~fill:0.9 dd in
  let n =
    Core.Db.get_exn (Core.Db.update db
      (Xmark.Workload.insert_bidder_xupdate ~auction_id:"open_auction0"
         ~person:"person1"))
  in
  Alcotest.(check int) "one auction" 1 n;
  let n =
    Core.Db.get_exn
      (Core.Db.update db
         (Xmark.Workload.delete_last_bidder_xupdate ~auction_id:"open_auction0"))
  in
  Alcotest.(check int) "one removed" 1 n;
  check_integrity (Core.Db.store db)

let () =
  Alcotest.run "xmark"
    [ ( "generator",
        [ Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "cardinalities" `Quick test_gen_cardinalities;
          Alcotest.test_case "well-formed output" `Quick test_gen_wellformed;
          Alcotest.test_case "scales linearly" `Quick test_gen_scaling ] );
      ( "queries",
        [ Alcotest.test_case "ro and up agree on Q1-Q20" `Quick
            test_queries_agree_across_schemas;
          Alcotest.test_case "sanity expectations" `Quick test_queries_sanity ] );
      ( "workload",
        [ Alcotest.test_case "churn keeps integrity" `Quick test_churn;
          Alcotest.test_case "xupdate fragments" `Quick test_churn_xupdate_fragments ] ) ]
