(* End-to-end Db facade tests and schema validation. *)

module Dom = Xml.Dom
module V = Core.Validate
module Db = Core.Db
module Up = Core.Schema_up

let check_integrity t =
  match Up.check_integrity t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "integrity: %s" m

let site_schema =
  V.of_rules
    [ ("site", V.rule ~content:(V.Children_of [ "people"; "items" ]) ());
      ("people", V.rule ~content:(V.Children_of [ "person" ]) ());
      ("person", V.rule ~required:[ "id" ] ());
      ("name", V.rule ~content:V.Text_only ());
      ("age", V.rule ~content:V.Text_only ~allowed:[] ()) ]

(* ------------------------------------------------------------- validate -- *)

let view_of d f =
  let t = Up.of_dom d in
  f (Core.View.direct t)

let test_validate_ok () =
  view_of Testsupport.small_doc (fun v ->
      match V.check_view site_schema v with
      | Ok () -> ()
      | Error m -> Alcotest.failf "expected valid: %s" m)

let expect_invalid schema xml fragment_of_error =
  view_of (Xml.Xml_parser.parse ~strip_ws:true xml) (fun v ->
      match V.check_view schema v with
      | Ok () -> Alcotest.failf "expected invalid (%s)" fragment_of_error
      | Error m ->
        let contains =
          let nh = String.length m and nn = String.length fragment_of_error in
          let rec go i = i + nn <= nh && (String.sub m i nn = fragment_of_error || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) (Printf.sprintf "%S in %S" fragment_of_error m) true contains)

let test_validate_failures () =
  expect_invalid site_schema "<site><intruder/></site>" "intruder";
  expect_invalid site_schema "<site><people><person/></people></site>" "missing required";
  expect_invalid site_schema
    "<site><people><person id='p'><name><b/></name></person></people></site>"
    "element children not allowed";
  expect_invalid site_schema
    "<site><people><person id='p'><age verified='y'>3</age></person></people></site>"
    "not allowed";
  expect_invalid
    (V.of_rules [ ("site", V.rule ~content:V.Empty ()) ])
    "<site><x/></site>" "must be empty";
  expect_invalid
    (V.of_rules [ ("people", V.rule ~content:(V.Children_of [ "person" ]) ()) ])
    "<site><people>stray text</people></site>" "text content not allowed"

(* ------------------------------------------------------------------- db -- *)

let test_db_end_to_end () =
  let db = Db.of_xml ~page_bits:3 ~fill:0.75 (Xml.Xml_serialize.to_string Testsupport.small_doc) in
  Alcotest.(check int) "three persons" 3 (Db.get_exn (Db.query_count db "//person"));
  Alcotest.(check (list string)) "query strings" [ "Ada" ]
    (Db.get_exn (Db.query_strings db "/site/people/person[1]/name/text()"));
  let n =
    Db.get_exn (Db.update db
      {|<xupdate:modifications>
          <xupdate:insert-after select="/site/people/person[1]">
            <person id="pX"><name>Between</name></person>
          </xupdate:insert-after>
        </xupdate:modifications>|})
  in
  Alcotest.(check int) "one target" 1 n;
  Alcotest.(check (list string)) "order after update"
    [ "Ada"; "Between"; "Grace"; "Edsger" ]
    (Db.get_exn (Db.query_strings db "/site/people/person/name"));
  check_integrity (Db.store db);
  (* to_xml reparses to an equivalent document *)
  let again = Db.of_xml (Db.to_xml db) in
  Alcotest.(check (list string)) "roundtrip through xml"
    (Db.get_exn (Db.query_strings db "//person/@id"))
    (Db.get_exn (Db.query_strings again "//person/@id"))

let test_db_schema_enforced () =
  let schema =
    V.of_rules [ ("people", V.rule ~content:(V.Children_of [ "person" ]) ()) ]
  in
  let db = Db.create ~schema Testsupport.small_doc in
  (match
     Db.update db
       {|<xupdate:modifications>
           <xupdate:append select="/site/people"><junk/></xupdate:append>
         </xupdate:modifications>|}
   with
  | Error (Db.Error.Aborted _) -> ()
  | _ -> Alcotest.fail "expected Aborted");
  Alcotest.(check int) "rolled back" 0 (Db.get_exn (Db.query_count db "//junk"));
  (* a valid update still goes through *)
  let n =
    Db.get_exn (Db.update db
      {|<xupdate:modifications>
          <xupdate:append select="/site/people"><person id="ok"/></xupdate:append>
        </xupdate:modifications>|})
  in
  Alcotest.(check int) "valid accepted" 1 n

let test_db_with_write_and_read () =
  let db = Db.create Testsupport.small_doc in
  let before = Db.read db (fun v -> Core.View.node_count v) in
  Db.with_write db (fun v ->
      let module E = Core.Engine.Make (Core.View) in
      match E.parse_eval v "/site/items" with
      | [ E.Node items ] ->
        Core.Update.insert v (Core.Update.Last_child items)
          (Xml.Xml_parser.parse_fragment "<item id='new'><name>lamp</name></item>")
      | _ -> Alcotest.fail "items");
  let after = Db.read db (fun v -> Core.View.node_count v) in
  Alcotest.(check int) "three more nodes" (before + 3) after

let test_db_vacuum () =
  (* churn the store, then compact: same document, tighter layout, node
     handles preserved *)
  let db = Db.create ~page_bits:3 ~fill:0.9 Testsupport.small_doc in
  let handle =
    Db.read db (fun v ->
        let module E = Core.Engine.Make (Core.View) in
        match E.parse_eval v "/site/items/item[2]" with
        | [ E.Node pre ] -> Core.Schema_up.node_at (Db.store db) ~pre
        | _ -> Alcotest.fail "item2")
  in
  for i = 1 to 10 do
    let _ =
      Db.get_exn (Db.update db
        (Printf.sprintf
           {|<xupdate:modifications>
               <xupdate:append select="/site/people"><person id="v%d"/></xupdate:append>
               <xupdate:remove select="/site/people/person[2]"/>
             </xupdate:modifications>|}
           i))
    in
    ()
  done;
  let before_doc = Db.to_xml db in
  let before_pages = Core.Schema_up.npages (Db.store db) in
  Db.vacuum ~fill:0.9 db;
  check_integrity (Db.store db);
  Alcotest.(check string) "document unchanged" before_doc (Db.to_xml db);
  Alcotest.(check bool)
    (Printf.sprintf "pages %d -> %d" before_pages
       (Core.Schema_up.npages (Db.store db)))
    true
    (Core.Schema_up.npages (Db.store db) <= before_pages);
  Alcotest.(check bool) "pagemap identity restored" true
    (Column.Pagemap.is_identity (Core.Schema_up.pagemap (Db.store db)));
  (* the held node id still resolves to the same element *)
  (match Core.Schema_up.pre_of_node (Db.store db) handle with
  | Some pre ->
    Db.read db (fun v ->
        Alcotest.(check (option string)) "handle survives vacuum" (Some "i1")
          (Core.View.attribute v pre (Xml.Qname.make "id")))
  | None -> Alcotest.fail "handle lost");
  (* updates still work after vacuum *)
  let n =
    Db.get_exn (Db.update db
      {|<xupdate:modifications>
          <xupdate:append select="/site/people"><person id="post-vacuum"/></xupdate:append>
        </xupdate:modifications>|})
  in
  Alcotest.(check int) "post-vacuum update" 1 n

let test_db_vacuum_wal_guard () =
  let tmp = Filename.temp_file "vacuum" ".wal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let db = Db.create ~wal_path:tmp Testsupport.small_doc in
      Alcotest.check_raises "wal requires checkpoint"
        (Invalid_argument
           "Db.vacuum: compaction invalidates the WAL; pass ~checkpoint_to")
        (fun () -> Db.vacuum db);
      let ck = Filename.temp_file "vacuum" ".ck" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
        (fun () ->
          Db.vacuum ~checkpoint_to:ck db;
          (* recovery from the new checkpoint gives the same document *)
          let db2 = Db.get_exn (Db.open_recovered ~wal_path:tmp ~checkpoint:ck ()) in
          Alcotest.(check string) "recovered equals" (Db.to_xml db) (Db.to_xml db2);
          Db.close db2);
      Db.close db)

(* -------------------------------------------------------------- catalog -- *)

let upd_append ?(target = "/doc") frag =
  Printf.sprintf
    {|<xupdate:modifications><xupdate:append select="%s">%s</xupdate:append></xupdate:modifications>|}
    target frag

let xml_doc tag n =
  Printf.sprintf "<doc>%s</doc>"
    (String.concat "" (List.init n (fun i -> Printf.sprintf "<%s i=\"%d\"/>" tag i)))

let create_xml db name src =
  match Db.create_doc_xml db name src with
  | Ok () -> ()
  | Error e -> Alcotest.failf "create_doc %s: %s" name (Db.Error.to_string e)

let test_catalog_basics () =
  let db = Db.empty () in
  Alcotest.(check (list string)) "empty catalog" [] (Db.list_docs db);
  (* no default document yet: entry points that assume it report Catalog *)
  (match Db.query db "/doc" with
  | Error (Db.Error.Catalog _) -> ()
  | _ -> Alcotest.fail "expected Catalog error on an empty catalog");
  create_xml db Db.default_doc (xml_doc "a" 3);
  create_xml db "beta" (xml_doc "b" 5);
  create_xml db "alpha" (xml_doc "c" 7);
  Alcotest.(check (list string)) "sorted names" [ "alpha"; "beta"; Db.default_doc ]
    (Db.list_docs db);
  (* per-document addressing; the bare call is the default document *)
  Alcotest.(check int) "default doc" 3 (Db.get_exn (Db.query_count db "/doc/a"));
  Alcotest.(check int) "named doc" 5
    (Db.get_exn (Db.query_count ~doc:"beta" db "/doc/b"));
  Alcotest.(check int) "other named doc" 7
    (Db.get_exn (Db.query_count ~doc:"alpha" db "/doc/c"));
  (* updates are scoped too *)
  let n = Db.get_exn (Db.update ~doc:"beta" db (upd_append "<extra/>")) in
  Alcotest.(check int) "one target" 1 n;
  Alcotest.(check int) "beta grew" 1
    (Db.get_exn (Db.query_count ~doc:"beta" db "/doc/extra"));
  Alcotest.(check int) "alpha untouched" 0
    (Db.get_exn (Db.query_count ~doc:"alpha" db "/doc/extra"));
  (* catalog errors surface as values through the result API *)
  (match Db.query db ~doc:"nope" "/doc" with
  | Error (Db.Error.Catalog _) -> ()
  | _ -> Alcotest.fail "expected Catalog error");
  (match Db.create_doc_xml db "beta" "<doc/>" with
  | Error (Db.Error.Catalog _) -> ()
  | _ -> Alcotest.fail "expected duplicate-name error");
  (match Db.drop_doc db "nope" with
  | Error (Db.Error.Catalog _) -> ()
  | _ -> Alcotest.fail "expected Catalog error on drop");
  (match Db.drop_doc db Db.default_doc with
  | Error (Db.Error.Catalog _) -> ()
  | _ -> Alcotest.fail "default doc is protected");
  (match Db.drop_doc db "alpha" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "drop alpha: %s" (Db.Error.to_string e));
  Alcotest.(check (list string)) "alpha gone" [ "beta"; Db.default_doc ]
    (Db.list_docs db);
  List.iter (fun d -> check_integrity (Db.store ~doc:d db)) (Db.list_docs db)

let test_catalog_fanout () =
  let db = Db.empty () in
  create_xml db Db.default_doc (xml_doc "x" 2);
  create_xml db "two" (xml_doc "x" 4);
  let rows = Db.query_count_docs ~docs:[ "two"; Db.default_doc; "ghost" ] db "/doc/x" in
  (match rows with
  | [ ("two", Ok 4); (d, Ok 2); ("ghost", Error (Db.Error.Catalog _)) ]
    when d = Db.default_doc ->
    ()
  | _ -> Alcotest.fail "fan-out rows wrong");
  (* default: the whole catalog, in list_docs order *)
  Alcotest.(check (list string)) "all docs"
    (Db.list_docs db)
    (List.map fst (Db.query_count_docs db "/doc/x"))

let test_write_multi_atomic () =
  let db = Db.empty () in
  create_xml db Db.default_doc (xml_doc "a" 1);
  create_xml db "other" (xml_doc "b" 1);
  (* success: one group commits both documents *)
  Db.get_exn (Db.write_multi db [ Db.default_doc; "other" ] (fun doc ->
      List.iter
        (fun d ->
          match Db.Session.update (doc d) (upd_append "<both/>") with
          | Ok 1 -> ()
          | Ok n -> Alcotest.failf "%d targets" n
          | Error e -> Alcotest.failf "update %s: %s" d (Db.Error.to_string e))
        [ Db.default_doc; "other" ]));
  Alcotest.(check int) "default updated" 1
    (Db.get_exn (Db.query_count db "/doc/both"));
  Alcotest.(check int) "other updated" 1
    (Db.get_exn (Db.query_count ~doc:"other" db "/doc/both"));
  (* failure in one member aborts the whole group; a client exception is
     not a store error, so it escapes as itself *)
  (match
     Db.write_multi db [ Db.default_doc; "other" ] (fun doc ->
         (match Db.Session.update (doc Db.default_doc) (upd_append "<poison/>") with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "first update: %s" (Db.Error.to_string e));
         failwith "boom")
   with
  | exception Failure m -> Alcotest.(check string) "escaped" "boom" m
  | _ -> Alcotest.fail "expected Failure \"boom\" to escape");
  Alcotest.(check int) "no partial commit" 0
    (Db.get_exn (Db.query_count db "/doc/poison"));
  (* an unknown name is refused before any work *)
  (match Db.write_multi db [ "ghost" ] (fun _ -> ()) with
  | Error (Db.Error.Catalog _) -> ()
  | _ -> Alcotest.fail "expected Catalog error")

let with_temp_dir f =
  let dir = Filename.temp_file "dbcat" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_catalog_checkpoint_recover () =
  with_temp_dir (fun dir ->
      let ck = Filename.concat dir "cat.ck" in
      let wal_path = ck ^ ".wal" in
      let db = Db.empty ~wal_path () in
      create_xml db Db.default_doc (xml_doc "a" 2);
      create_xml db "left" (xml_doc "b" 3);
      create_xml db "right" (xml_doc "c" 4);
      ignore (Db.get_exn (Db.update ~doc:"left" db (upd_append "<pre-ck/>")));
      Db.checkpoint db ck;
      (* post-checkpoint commits live only in the (mixed, multi-doc) WAL —
         including one atomic cross-document group *)
      ignore (Db.get_exn (Db.update ~doc:"right" db (upd_append "<post-ck/>")));
      ignore (Db.get_exn (Db.update db (upd_append "<post-ck/>")));
      Db.get_exn
        (Db.write_multi db [ "left"; "right" ] (fun doc ->
             List.iter
               (fun d ->
                 ignore
                   (Db.get_exn
                      (Db.Session.update (doc d) (upd_append "<grouped/>"))))
               [ "left"; "right" ]));
      let expect =
        List.map (fun d -> (d, Db.to_xml ~doc:d db)) (Db.list_docs db)
      in
      Db.close db;
      let db2 = Db.get_exn (Db.open_recovered ~checkpoint:ck ()) in
      Alcotest.(check (list string)) "names survive"
        (List.map fst expect) (Db.list_docs db2);
      List.iter
        (fun (d, xml) ->
          check_integrity (Db.store ~doc:d db2);
          Alcotest.(check string) ("document " ^ d) xml (Db.to_xml ~doc:d db2))
        expect;
      (* the recovered catalog accepts further scoped commits *)
      Alcotest.(check int) "post-recovery update" 1
        (Db.get_exn (Db.update ~doc:"left" db2 (upd_append "<after/>")));
      Db.close db2)

let test_legacy_checkpoint_rejected () =
  with_temp_dir (fun dir ->
      (* hand-write a pre-catalog single-plane checkpoint: [lsn; plane] —
         no catalog marker, so it is not a checkpoint this store reads *)
      let ck = Filename.concat dir "legacy.ck" in
      let store = Up.of_dom (Xml.Xml_parser.parse ~strip_ws:true (xml_doc "old" 6)) in
      let enc = Column.Persist.Enc.create () in
      Column.Persist.Enc.int enc 0;
      Up.save store enc;
      let oc = open_out_bin ck in
      Column.Persist.write_frame oc (Column.Persist.Enc.contents enc);
      close_out oc;
      match Db.open_recovered ~checkpoint:ck () with
      | Error (Db.Error.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "legacy checkpoint must not load"
      | Error e -> Alcotest.failf "unexpected: %s" (Db.Error.to_string e))

let test_empty_checkpoint_corrupt () =
  with_temp_dir (fun dir ->
      let ck = Filename.concat dir "empty.ck" in
      close_out (open_out_bin ck);
      match Db.open_recovered ~checkpoint:ck () with
      | Error (Db.Error.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "an empty checkpoint must not load"
      | Error e -> Alcotest.failf "unexpected: %s" (Db.Error.to_string e))

let test_drop_purges_cache () =
  let db = Db.empty ~cache:Db.default_cache () in
  create_xml db Db.default_doc "<doc/>";
  create_xml db "vic" (xml_doc "v" 5);
  let stats () = Option.get (Db.cache_stats db) in
  Alcotest.(check int) "warm" 5 (Db.get_exn (Db.query_count ~doc:"vic" db "/doc/v"));
  Alcotest.(check int) "hit" 5 (Db.get_exn (Db.query_count ~doc:"vic" db "/doc/v"));
  let before = stats () in
  Db.get_exn (Db.drop_doc db "vic");
  (* same name, same query, fresh document: epochs restarted at zero, so a
     stale surviving entry would be served — the drop must have purged it *)
  create_xml db "vic" (xml_doc "v" 2);
  let n = Db.get_exn (Db.query_count ~doc:"vic" db "/doc/v") in
  let after = stats () in
  Alcotest.(check int) "fresh result, not the cached 5" 2 n;
  Alcotest.(check int) "re-query was a miss" (before.Core.Qcache.misses + 1)
    after.Core.Qcache.misses

let () =
  Alcotest.run "db"
    [ ( "validate",
        [ Alcotest.test_case "valid document" `Quick test_validate_ok;
          Alcotest.test_case "failure modes" `Quick test_validate_failures ] );
      ( "facade",
        [ Alcotest.test_case "query/update/serialise" `Quick test_db_end_to_end;
          Alcotest.test_case "schema enforced on commit" `Quick test_db_schema_enforced;
          Alcotest.test_case "with_write and read" `Quick test_db_with_write_and_read;
          Alcotest.test_case "vacuum" `Quick test_db_vacuum;
          Alcotest.test_case "vacuum + wal" `Quick test_db_vacuum_wal_guard ] );
      ( "catalog",
        [ Alcotest.test_case "create/drop/list + scoping" `Quick test_catalog_basics;
          Alcotest.test_case "inter-document fan-out" `Quick test_catalog_fanout;
          Alcotest.test_case "write_multi is atomic" `Quick test_write_multi_atomic;
          Alcotest.test_case "catalog checkpoint + mixed WAL" `Quick
            test_catalog_checkpoint_recover;
          Alcotest.test_case "legacy checkpoint rejected" `Quick
            test_legacy_checkpoint_rejected;
          Alcotest.test_case "empty checkpoint is corrupt" `Quick
            test_empty_checkpoint_corrupt;
          Alcotest.test_case "drop purges cached results" `Quick
            test_drop_purges_cache ] ) ]
