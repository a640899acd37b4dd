(* Durability tests: WAL record codec, commit logging, checkpoint + replay
   recovery, torn-log crash recovery. *)

module Dom = Xml.Dom
module P = Xml.Xml_parser
module Up = Core.Schema_up
module View = Core.View
module Values = Core.Values
module U = Core.Update
module Txn = Core.Txn
module Wal = Core.Wal
module E = Core.Engine.Make (Core.View)
module Ser = Core.Node_serialize.Make (Core.View)

let doc = Alcotest.testable Dom.pp Dom.equal

let with_temp f =
  let dir = Filename.temp_file "waltest" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let check_integrity t =
  match Up.check_integrity t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "integrity: %s" m

let node_pre v path =
  match E.parse_eval v path with
  | [ E.Node pre ] -> pre
  | _ -> Alcotest.failf "expected one node for %s" path

(* ---------------------------------------------------------------- codec -- *)

let sample_record =
  { Wal.doc = 0;
    txn = 42;
    cells = [ (3, 0, 7); (12, 1, Column.Varray.null) ];
    pages = [ Array.init 5 (fun c -> Array.init 4 (fun i -> (c * 10) + i)) ];
    page_order = [| 0; 2; 1 |];
    node_pos = [ (5, 17); (9, Column.Varray.null) ];
    freed_nodes = [ 4; 2 ];
    size_deltas = [ (0, 3); (7, -2) ];
    attr_adds = [ (1, 2, 3) ];
    attr_dels = [ 0 ];
    pool = [ (Core.Values.Ptext, 2, "hello"); (Core.Values.Dqn, 1, "item") ];
    live_delta = 1 }

let test_record_roundtrip () =
  match Wal.decode_group (Wal.encode_group [ sample_record ]) with
  | [ r ] ->
    Alcotest.(check int) "txn" 42 r.Wal.txn;
    Alcotest.(check bool) "equal" true (r = sample_record)
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs)

let test_record_corrupt () =
  match Wal.decode_group "garbage" with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Column.Persist.Dec.Corrupt _ -> ()

let gen_record =
  let open QCheck2.Gen in
  let pool_tag =
    oneofl
      [ Core.Values.Ptext; Core.Values.Pcomment; Core.Values.Ppi_target;
        Core.Values.Ppi_data; Core.Values.Dqn; Core.Values.Dprop ]
  in
  let* txn = int_bound 10_000 in
  let* cells = small_list (triple (int_bound 999) (int_bound 4) int) in
  let* npages = int_bound 2 in
  let* page_seed = int_bound 100 in
  let pages =
    List.init npages (fun p ->
        Array.init 5 (fun c -> Array.init 4 (fun i -> page_seed + (p * 100) + (c * 10) + i)))
  in
  let* order_n = int_range 1 5 in
  let order =
    Array.init order_n (fun i -> (i + page_seed) mod order_n)
    |> Array.to_list |> List.sort_uniq compare |> Array.of_list
  in
  let order = Array.init (Array.length order) (fun i -> order.(i)) in
  let* node_pos = small_list (pair (int_bound 999) int) in
  let* freed = small_list (int_bound 999) in
  let* deltas = small_list (pair (int_bound 999) (int_range (-5) 5)) in
  let* attr_adds = small_list (triple (int_bound 99) (int_bound 99) (int_bound 99)) in
  let* attr_dels = small_list (int_bound 99) in
  let* pool = small_list (triple pool_tag (int_bound 99) string_printable) in
  let* live_delta = int_range (-100) 100 in
  let* doc = int_bound 7 in
  return
    { Wal.doc; txn; cells; pages; page_order = order; node_pos;
      freed_nodes = freed; size_deltas = deltas; attr_adds; attr_dels; pool;
      live_delta }

let prop_record_roundtrip =
  QCheck2.Test.make ~name:"WAL record encode/decode roundtrip" ~count:300
    gen_record (fun r -> Wal.decode_group (Wal.encode_group [ r ]) = [ r ])

let test_group_roundtrip () =
  let r2 = { sample_record with Wal.doc = 1; txn = 43 } in
  let payload = Wal.encode_group [ sample_record; r2 ] in
  let rs = Wal.decode_group payload in
  Alcotest.(check bool) "group equal" true (rs = [ sample_record; r2 ])

(* A commit group is one checksummed frame: an intact log replays its records
   in order; a torn tail drops the WHOLE trailing group, never part of it. *)
let test_group_frame_is_atomic () =
  with_temp (fun dir ->
      let wal_path = Filename.concat dir "log.wal" in
      let wal = Wal.open_log wal_path in
      Wal.append_group wal [ sample_record ];
      let r2 = { sample_record with Wal.doc = 1; txn = 43 } in
      let r3 = { sample_record with Wal.doc = 2; txn = 44 } in
      Wal.append_group wal [ r2; r3 ];
      Wal.close wal;
      let seen = ref [] in
      let n = Wal.replay wal_path (fun r -> seen := (r.Wal.doc, r.Wal.txn) :: !seen) in
      Alcotest.(check int) "three records" 3 n;
      Alcotest.(check (list (pair int int)))
        "flattened in order" [ (0, 42); (1, 43); (2, 44) ] (List.rev !seen);
      let len = (Unix.stat wal_path).Unix.st_size in
      let fd = Unix.openfile wal_path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (len - 5);
      Unix.close fd;
      let seen2 = ref [] in
      let n2 = Wal.replay wal_path (fun r -> seen2 := r.Wal.txn :: !seen2) in
      Alcotest.(check int) "only the intact frame" 1 n2;
      Alcotest.(check (list int)) "no half-group" [ 42 ] (List.rev !seen2))

(* The codec's byte-by-byte definitions, kept as the reference the word-wide
   kernels must match: the same bytes, the same checksums. *)
let ref_int b x =
  for i = 0 to 7 do
    Buffer.add_char b (Char.chr ((x asr (8 * i)) land 0xff))
  done

let ref_dec_int s off =
  let x = ref 0 in
  for i = 7 downto 0 do
    x := (!x lsl 8) lor Char.code s.[off + i]
  done;
  !x

let ref_adler32 s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

let new_int x =
  let e = Column.Persist.Enc.create () in
  Column.Persist.Enc.int e x;
  Column.Persist.Enc.contents e

let ref_bytes x =
  let b = Buffer.create 8 in
  ref_int b x;
  Buffer.contents b

let prop_codec_matches_reference =
  let open QCheck2.Gen in
  let special = oneofl [ min_int; max_int; -1; 0; 1; Column.Varray.null ] in
  QCheck2.Test.make ~name:"codec kernels = byte-by-byte reference" ~count:500
    (pair (oneof [ special; int ]) (string_size (int_bound 12_000)))
    (fun (x, s) ->
      let bytes = new_int x in
      String.equal bytes (ref_bytes x)
      && Column.Persist.Dec.int (Column.Persist.Dec.of_string bytes) = x
      && ref_dec_int bytes 0 = x
      && Column.Persist.adler32 s = ref_adler32 s)

(* A frame whose header the reference encoder wrote replays. *)
let test_reference_frame_replays () =
  with_temp (fun dir ->
      let wal_path = Filename.concat dir "old.wal" in
      let payload = Wal.encode_group [ sample_record ] in
      let frame = Buffer.create 64 in
      List.iter (ref_int frame)
        [ 0xB0DECA; String.length payload; ref_adler32 payload ];
      Buffer.add_string frame payload;
      Out_channel.with_open_bin wal_path (fun oc ->
          Out_channel.output_string oc (Buffer.contents frame));
      let seen = ref [] in
      Alcotest.(check int) "one record" 1
        (Wal.replay wal_path (fun r -> seen := r :: !seen));
      Alcotest.(check bool) "record intact" true (!seen = [ sample_record ]))

(* --------------------------------------------------------------- replay -- *)

(* Replay [wal_path] onto [store] as document 0 — the sole document of a
   single-plane manager; returns the number of records redone. *)
let replay ~wal_path store =
  let progress =
    Txn.recover_docs ~wal_path
      ~store_of:(fun id -> if id = 0 then Some store else None)
      ~after:(fun _ -> 0)
  in
  match Hashtbl.find_opt progress 0 with Some (n, _) -> n | None -> 0

let test_wal_replay_reproduces_document () =
  with_temp (fun dir ->
      let wal_path = Filename.concat dir "log.wal" in
      (* two stores shredded identically; one gets updates with a WAL *)
      let mk () = Up.of_dom ~page_bits:3 ~fill:0.75 Testsupport.small_doc in
      let live = mk () in
      let wal = Wal.open_log wal_path in
      let m = Txn.manager ~wal live in
      Txn.with_write m (fun v ->
          U.insert v (U.Last_child (node_pre v "/site/people"))
            (P.parse_fragment "<person id='p3'><name>Alan</name></person>"));
      Txn.with_write m (fun v -> U.delete v ~pre:(node_pre v "/site/items/item[1]"));
      Txn.with_write m (fun v ->
          U.set_attribute v ~pre:(node_pre v "/site/items/item") (Xml.Qname.make "hot") "yes");
      (* every value table: comment and PI pools, both dictionaries *)
      Txn.with_write m (fun v ->
          U.insert v (U.Last_child (node_pre v "/site/items"))
            (P.parse_fragment
               "<item id='i9' kind='new'><!-- fresh --><?tally n=1?>tea</item>");
          U.set_text v ~pre:(node_pre v "/site/comment()") "edited";
          U.set_text v
            ~pre:(node_pre v "/site/items/item[@id='i9']/processing-instruction()")
            "n=2");
      Wal.close wal;
      (* recover onto a fresh shred of the same base document *)
      let recovered = mk () in
      let n = replay ~wal_path recovered in
      Alcotest.(check int) "four records" 4 n;
      check_integrity recovered;
      Alcotest.check doc "same document"
        (Ser.to_dom (Testsupport.view live))
        (Ser.to_dom (Testsupport.view recovered));
      Alcotest.(check int) "same live count" (Up.node_count live)
        (Up.node_count recovered);
      let values t = Up.values t in
      List.iter
        (fun pool ->
          let len = Values.length (values live) pool in
          Alcotest.(check int) "same table length" len
            (Values.length (values recovered) pool);
          for id = 0 to len - 1 do
            Alcotest.(check string) "same value"
              (Values.get (values live) pool id)
              (Values.get (values recovered) pool id)
          done)
        Values.[ Ptext; Pcomment; Ppi_target; Ppi_data; Dqn; Dprop ])

let test_checkpoint_recover_cycle () =
  with_temp (fun dir ->
      let ck = Filename.concat dir "store.ck" in
      let wal_path = Filename.concat dir "store.ck.wal" in
      let db =
        Core.Db.create ~page_bits:3 ~fill:0.75 ~wal_path Testsupport.small_doc
      in
      let _ = Core.Db.(get_exn (update db
          {|<xupdate:modifications>
              <xupdate:append select="/site/people">
                <person id="p9"><name>Barbara</name></person>
              </xupdate:append>
            </xupdate:modifications>|}))
      in
      Core.Db.checkpoint db ck;
      (* post-checkpoint commits live only in the WAL *)
      let _ = Core.Db.(get_exn (update db
          {|<xupdate:modifications>
              <xupdate:remove select="/site/items/item[2]"/>
            </xupdate:modifications>|}))
      in
      let expected = Core.Db.to_xml db in
      Core.Db.close db;
      (* crash: reopen from checkpoint + WAL *)
      let db2 = Core.Db.(get_exn (open_recovered ~wal_path ~checkpoint:ck ())) in
      check_integrity (Core.Db.store db2);
      Alcotest.(check string) "document recovered" expected (Core.Db.to_xml db2);
      (* the recovered store accepts new transactions *)
      let n = Core.Db.(get_exn (update db2
          {|<xupdate:modifications>
              <xupdate:append select="/site/people"><person/></xupdate:append>
            </xupdate:modifications>|}))
      in
      Alcotest.(check int) "one target" 1 n;
      Core.Db.close db2)

let test_torn_wal_tail_recovers_prefix () =
  with_temp (fun dir ->
      let wal_path = Filename.concat dir "log.wal" in
      let mk () = Up.of_dom ~page_bits:3 ~fill:0.75 Testsupport.small_doc in
      let live = mk () in
      let wal = Wal.open_log wal_path in
      let m = Txn.manager ~wal live in
      Txn.with_write m (fun v ->
          U.insert v (U.Last_child (node_pre v "/site/people"))
            (P.parse_fragment "<person id='keep'/>"));
      let after_first = Ser.to_dom (Testsupport.view live) in
      Txn.with_write m (fun v ->
          U.insert v (U.Last_child (node_pre v "/site/people"))
            (P.parse_fragment "<person id='torn'/>"));
      Wal.close wal;
      (* cut the last 7 bytes: the second frame fails its checksum *)
      let len = (Unix.stat wal_path).Unix.st_size in
      let fd = Unix.openfile wal_path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (len - 7);
      Unix.close fd;
      let recovered = mk () in
      let n = replay ~wal_path recovered in
      Alcotest.(check int) "only the intact record" 1 n;
      check_integrity recovered;
      Alcotest.check doc "prefix state" after_first
        (Ser.to_dom (Testsupport.view recovered)))

let test_missing_wal_is_empty () =
  let t = Up.of_dom Testsupport.small_doc in
  let n = replay ~wal_path:"/nonexistent/definitely/missing.wal" t in
  Alcotest.(check int) "zero records" 0 n

(* Recovery must also reproduce overflow commits (staged pages + pagemap). *)
let test_recovery_with_page_splices () =
  with_temp (fun dir ->
      let wal_path = Filename.concat dir "log.wal" in
      let mk () = Up.of_dom ~page_bits:2 ~fill:1.0 Testsupport.paper_doc in
      let live = mk () in
      let wal = Wal.open_log wal_path in
      let m = Txn.manager ~wal live in
      for i = 1 to 5 do
        Txn.with_write m (fun v ->
            U.insert v (U.Last_child (node_pre v "//g"))
              (P.parse_fragment (Printf.sprintf "<w i='%d'><x/><y/></w>" i)))
      done;
      Wal.close wal;
      let recovered = mk () in
      let n = replay ~wal_path recovered in
      Alcotest.(check int) "five records" 5 n;
      check_integrity recovered;
      Alcotest.(check bool) "pagemap no longer identity" false
        (Column.Pagemap.is_identity (Up.pagemap recovered));
      Alcotest.check doc "equal documents"
        (Ser.to_dom (Testsupport.view live))
        (Ser.to_dom (Testsupport.view recovered)))

let () =
  Alcotest.run "wal"
    [ ( "codec",
        [ Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "corrupt payload" `Quick test_record_corrupt;
          Alcotest.test_case "group roundtrip" `Quick test_group_roundtrip;
          Alcotest.test_case "group frame is atomic" `Quick
            test_group_frame_is_atomic;
          Testsupport.qcheck_case prop_record_roundtrip;
          Testsupport.qcheck_case prop_codec_matches_reference;
          Alcotest.test_case "reference-encoded frame replays" `Quick
            test_reference_frame_replays ] );
      ( "recovery",
        [ Alcotest.test_case "replay reproduces document" `Quick
            test_wal_replay_reproduces_document;
          Alcotest.test_case "checkpoint + wal cycle" `Quick test_checkpoint_recover_cycle;
          Alcotest.test_case "torn tail keeps prefix" `Quick
            test_torn_wal_tail_recovers_prefix;
          Alcotest.test_case "missing wal" `Quick test_missing_wal_is_empty;
          Alcotest.test_case "page splices replayed" `Quick test_recovery_with_page_splices ] ) ]
