(* Unit and property tests for the column-store kernel. *)

open Column

let check = Alcotest.(check int)

(* ------------------------------------------------------------- varray -- *)

let test_varray_push_get () =
  let v = Varray.create () in
  for i = 0 to 99 do
    ignore (Varray.push v (i * i))
  done;
  check "length" 100 (Varray.length v);
  for i = 0 to 99 do
    check "get" (i * i) (Varray.get v i)
  done

let test_varray_bounds () =
  let v = Varray.make 3 7 in
  Alcotest.check_raises "get oob" (Invalid_argument "Varray: index 3 out of bounds [0,3)")
    (fun () -> ignore (Varray.get v 3));
  Alcotest.check_raises "get neg" (Invalid_argument "Varray: index -1 out of bounds [0,3)")
    (fun () -> ignore (Varray.get v (-1)))

let test_varray_blit_overlap () =
  let v = Varray.of_array [| 0; 1; 2; 3; 4; 5 |] in
  Varray.blit_within v ~src:0 ~dst:2 ~len:4;
  Alcotest.(check (array int)) "shift right" [| 0; 1; 0; 1; 2; 3 |] (Varray.to_array v);
  let w = Varray.of_array [| 0; 1; 2; 3; 4; 5 |] in
  Varray.blit_within w ~src:2 ~dst:0 ~len:4;
  Alcotest.(check (array int)) "shift left" [| 2; 3; 4; 5; 4; 5 |] (Varray.to_array w)

let test_varray_ops () =
  let v = Varray.make 4 1 in
  Varray.fill v ~pos:1 ~len:2 9;
  Alcotest.(check (array int)) "fill" [| 1; 9; 9; 1 |] (Varray.to_array v);
  Varray.push_n v 3 5;
  check "push_n len" 7 (Varray.length v);
  check "pop" 5 (Varray.pop v);
  Varray.truncate v 2;
  check "truncate" 2 (Varray.length v);
  Varray.ensure_length v 5 0;
  check "ensure" 5 (Varray.length v);
  check "ensure fill" 0 (Varray.get v 4);
  Alcotest.(check bool) "equal copy" true (Varray.equal v (Varray.copy v))

(* ------------------------------------------------------------ strpool -- *)

let test_strpool () =
  let p = Strpool.create () in
  let i = Strpool.push p "hello" in
  let j = Strpool.push p "world" in
  Alcotest.(check string) "get" "hello" (Strpool.get p i);
  Strpool.set p j "mundo";
  Alcotest.(check string) "set" "mundo" (Strpool.get p j);
  check "len" 2 (Strpool.length p)

(* --------------------------------------------------------------- dict -- *)

let test_dict () =
  let d = Dict.create () in
  let a = Dict.intern d "alpha" in
  let b = Dict.intern d "beta" in
  check "re-intern is stable" a (Dict.intern d "alpha");
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check string) "inverse" "beta" (Dict.to_string d b);
  Alcotest.(check (option int)) "find" (Some a) (Dict.find_opt d "alpha");
  Alcotest.(check (option int)) "find missing" None (Dict.find_opt d "gamma");
  check "cardinal" 2 (Dict.cardinal d)

(* ------------------------------------------------------------ pagemap -- *)

let test_pagemap_identity () =
  let m = Pagemap.create ~bits:3 in
  let p0 = Pagemap.append_page m in
  let p1 = Pagemap.append_page m in
  check "phys ids" 0 p0;
  check "phys ids" 1 p1;
  Alcotest.(check bool) "identity" true (Pagemap.is_identity m);
  check "pre_to_pos id" 11 (Pagemap.pre_to_pos m 11);
  check "capacity" 16 (Pagemap.capacity m)

let test_pagemap_splice () =
  let m = Pagemap.create ~bits:3 in
  ignore (Pagemap.append_page m);
  ignore (Pagemap.append_page m);
  (* splice one fresh page between the two: logical order 0,2,1 *)
  (match Pagemap.splice m ~at:1 ~count:1 with
  | [ p ] -> check "fresh phys id" 2 p
  | _ -> Alcotest.fail "expected one page");
  check "npages" 3 (Pagemap.npages m);
  check "logical 1 -> phys 2" 2 (Pagemap.phys_of_logical m 1);
  check "logical 2 -> phys 1" 1 (Pagemap.phys_of_logical m 2);
  (* the swizzle: pre 8..15 now live on physical page 2 *)
  check "pre 9 -> pos 17" 17 (Pagemap.pre_to_pos m 9);
  check "pos 17 -> pre 9" 9 (Pagemap.pos_to_pre m 17);
  (* old page 1 shifted logically: pre 16..23 *)
  check "pre 16 -> pos 8" 8 (Pagemap.pre_to_pos m 16);
  Alcotest.(check bool) "not identity" false (Pagemap.is_identity m)

let test_pagemap_of_array () =
  let m = Pagemap.of_array ~bits:2 [| 2; 0; 1 |] in
  check "inverse" 1 (Pagemap.logical_of_phys m 0);
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Pagemap.of_array: not a permutation") (fun () ->
      ignore (Pagemap.of_array ~bits:2 [| 0; 0; 1 |]))

let prop_pagemap_bijection =
  QCheck2.Test.make ~name:"pagemap swizzle stays a bijection under splices"
    ~count:200
    QCheck2.Gen.(list_size (int_bound 8) (pair (int_bound 10) (int_range 1 3)))
    (fun splices ->
      let m = Pagemap.create ~bits:2 in
      ignore (Pagemap.append_page m);
      List.iter
        (fun (at, count) ->
          let at = min at (Pagemap.npages m) in
          ignore (Pagemap.splice m ~at ~count))
        splices;
      let cap = Pagemap.capacity m in
      let seen = Array.make cap false in
      let ok = ref true in
      for pre = 0 to cap - 1 do
        let pos = Pagemap.pre_to_pos m pre in
        if pos < 0 || pos >= cap || seen.(pos) then ok := false else seen.(pos) <- true;
        if Pagemap.pos_to_pre m pos <> pre then ok := false
      done;
      !ok)

(* ------------------------------------------------------------ persist -- *)

let test_persist_roundtrip () =
  let enc = Persist.Enc.create () in
  Persist.Enc.int enc 42;
  Persist.Enc.int enc min_int;
  Persist.Enc.int enc (-7);
  Persist.Enc.string enc "héllo\nworld";
  Persist.Enc.int_array enc [| 1; -2; 3 |];
  let dec = Persist.Dec.of_string (Persist.Enc.contents enc) in
  check "int" 42 (Persist.Dec.int dec);
  check "min_int survives" min_int (Persist.Dec.int dec);
  check "negative" (-7) (Persist.Dec.int dec);
  Alcotest.(check string) "string" "héllo\nworld" (Persist.Dec.string dec);
  Alcotest.(check (array int)) "array" [| 1; -2; 3 |] (Persist.Dec.int_array dec);
  Alcotest.(check bool) "at_end" true (Persist.Dec.at_end dec)

let with_temp_file f =
  let path = Filename.temp_file "persist_test" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_persist_frames () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      Persist.write_frame oc "first";
      Persist.write_frame oc "second";
      close_out oc;
      let ic = open_in_bin path in
      Alcotest.(check (option string)) "frame 1" (Some "first") (Persist.read_frame ic);
      Alcotest.(check (option string)) "frame 2" (Some "second") (Persist.read_frame ic);
      Alcotest.(check (option string)) "eof" None (Persist.read_frame ic);
      close_in ic)

let test_persist_torn_frame () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      Persist.write_frame oc "complete";
      Persist.write_frame oc "this one gets torn";
      close_out oc;
      (* cut the file mid-second-frame: recovery must keep the valid prefix *)
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (len - 5);
      Unix.close fd;
      let ic = open_in_bin path in
      Alcotest.(check (option string)) "valid prefix" (Some "complete") (Persist.read_frame ic);
      Alcotest.(check (option string)) "torn tail dropped" None (Persist.read_frame ic);
      close_in ic)

let test_persist_corrupt_frame () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      Persist.write_frame oc "payload";
      close_out oc;
      (* flip a payload byte: checksum must reject it *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd 26 Unix.SEEK_SET);
      ignore (Unix.write_substring fd "X" 0 1);
      Unix.close fd;
      let ic = open_in_bin path in
      Alcotest.(check (option string)) "corrupt rejected" None (Persist.read_frame ic);
      close_in ic)

let prop_persist_varray =
  QCheck2.Test.make ~name:"persist varray roundtrip" ~count:200
    QCheck2.Gen.(list small_int)
    (fun l ->
      let v = Varray.of_array (Array.of_list l) in
      let enc = Persist.Enc.create () in
      Persist.Enc.varray enc v;
      let dec = Persist.Dec.of_string (Persist.Enc.contents enc) in
      Varray.equal v (Persist.Dec.varray dec))

let () =
  Alcotest.run "column"
    [ ( "varray",
        [ Alcotest.test_case "push/get" `Quick test_varray_push_get;
          Alcotest.test_case "bounds" `Quick test_varray_bounds;
          Alcotest.test_case "overlapping blit" `Quick test_varray_blit_overlap;
          Alcotest.test_case "fill/pop/truncate/ensure" `Quick test_varray_ops ] );
      ("strpool", [ Alcotest.test_case "basic" `Quick test_strpool ]);
      ("dict", [ Alcotest.test_case "intern" `Quick test_dict ]);
      ( "pagemap",
        [ Alcotest.test_case "identity" `Quick test_pagemap_identity;
          Alcotest.test_case "splice" `Quick test_pagemap_splice;
          Alcotest.test_case "of_array" `Quick test_pagemap_of_array;
          Testsupport.qcheck_case prop_pagemap_bijection ] );
      ( "persist",
        [ Alcotest.test_case "codec roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "frames" `Quick test_persist_frames;
          Alcotest.test_case "torn frame" `Quick test_persist_torn_frame;
          Alcotest.test_case "corrupt frame" `Quick test_persist_corrupt_frame;
          Testsupport.qcheck_case prop_persist_varray ] ) ]
