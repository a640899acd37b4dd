(* Staircase edge cases on slack-heavy views (staircase.mli's caveats made
   concrete): sibling hops that undershoot onto deeper descendants after
   interior deletions, contexts adjacent to free runs, axes across entirely
   empty pages, and the prune_covered partitioning contract the parallel
   engine relies on. test_axes covers the axes broadly; this file pins the
   specific undershoot/free-run mechanics on hand-built views. *)

module Dom = Xml.Dom
module Up = Core.Schema_up
module View = Core.View
module U = Core.Update
module Sj = Core.Staircase.Make (Core.View)
module Ord = Testsupport.Ord (Core.View)

(*   <r>                          ordinals:
       <a><b><c/><d/></b><e/></a>   r=0 a=1 b=2 c=3 d=4 e=5
       <f><g/></f>                  f=6 g=7
       <h/>                         h=8
     </r>
   shredded at 4 slots/page, fill 0.5: two used slots per page, so every
   pair of nodes is followed by a free run and most sibling hops land on
   unused slots. *)
let slack_store () =
  let d = Xml.Xml_parser.parse "<r><a><b><c/><d/></b><e/></a><f><g/></f><h/></r>" in
  let t = Up.of_dom ~page_bits:2 ~fill:0.5 d in
  (t, Testsupport.view t)

let pre_of v ord =
  let _, rev = Ord.mapping v in
  Hashtbl.find rev ord

let ord_of v pre =
  let tbl, _ = Ord.mapping v in
  Hashtbl.find tbl pre

let ords v pres = List.map (ord_of v) pres

let check_integrity t =
  match Up.check_integrity t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "integrity: %s" m

let li = Alcotest.(check (list int))

(* After deleting <c/>, b's size (1) undercounts the slots its region spans:
   the sibling hop from b lands on d — a deeper descendant — and must hop
   again to reach e. Child/sibling enumeration under a and the parent links
   must survive that undershoot. *)
let test_undershoot_after_delete () =
  let t, _ = slack_store () in
  Core.Txn.with_write (Core.Txn.manager t) (fun w -> U.delete w ~pre:(pre_of w 3));
  check_integrity t;
  (* ordinals after the delete: r=0 a=1 b=2 d=3 e=4 f=5 g=6 h=7 *)
  let v = Testsupport.view t in
  let p = pre_of v in
  li "children of a skip into e over b's shrunk subtree" [ 2; 4 ]
    (ords v (Sj.children v [ p 1 ]));
  li "children of b" [ 3 ] (ords v (Sj.children v [ p 2 ]));
  li "following siblings of b" [ 4 ] (ords v (Sj.following_siblings v [ p 2 ]));
  li "descendants of a" [ 2; 3; 4 ] (ords v (Sj.descendants v [ p 1 ]));
  Alcotest.(check (option int)) "parent of d is b (not a mis-hopped a)"
    (Some 2)
    (Option.map (ord_of v) (Sj.parent_of v (p 3)));
  Alcotest.(check (option int)) "parent of e is a" (Some 1)
    (Option.map (ord_of v) (Sj.parent_of v (p 4)))

(* A context whose subtree is followed directly by a free run: subtree_end
   must report the first slot after the run's logical position such that the
   following axis starts at the right node, not inside the slack. *)
let test_context_adjacent_to_free_run () =
  let _, v = slack_store () in
  let p = pre_of v in
  (* e (ord 5) is the last node of a's subtree; slack follows before f *)
  li "following of e" [ 6; 7; 8 ] (ords v (Sj.following v [ p 5 ]));
  li "following of a skips a's own slack" [ 6; 7; 8 ]
    (ords v (Sj.following v [ p 1 ]));
  li "preceding of f" [ 1; 2; 3; 4; 5 ] (ords v (Sj.preceding v [ p 6 ]));
  (* subtree_end of the root is the extent even with trailing slack *)
  Alcotest.(check int) "subtree_end r = extent" (View.extent v)
    (Sj.subtree_end v (p 0))

(* Deleting whole subtrees until only <r><a/><h/></r> remains leaves pages
   with no used slot at all; every hop must cross them in one next_used
   step and the axes must behave as on the dense equivalent. *)
let test_empty_pages () =
  let t, _ = slack_store () in
  Core.Txn.with_write (Core.Txn.manager t) (fun w ->
      U.delete w ~pre:(pre_of w 6) (* f (and g) *);
      U.delete w ~pre:(pre_of w 2) (* b (and c, d) *);
      U.delete w ~pre:(pre_of w 2) (* e, now ordinal 2 *));
  check_integrity t;
  let v = Testsupport.view t in
  let p = pre_of v in
  li "children of r" [ 1; 2 ] (ords v (Sj.children v [ p 0 ]));
  li "descendants of r" [ 1; 2 ] (ords v (Sj.descendants v [ p 0 ]));
  li "following siblings of a" [ 2 ] (ords v (Sj.following_siblings v [ p 1 ]));
  li "preceding siblings of h" [ 1 ] (ords v (Sj.preceding_siblings v [ p 2 ]));
  li "ancestors of h" [ 0 ] (ords v (Sj.ancestors v [ p 2 ]))

(* prune_covered: drops contexts covered by an earlier subtree, keeps the
   rest sorted; the surviving regions are disjoint. *)
let test_prune_covered_units () =
  let _, v = slack_store () in
  let p = pre_of v in
  let prune ords_in = ords v (Sj.prune_covered v (List.map p ords_in)) in
  li "root covers everything" [ 0 ] (prune [ 0; 2; 5; 6 ]);
  li "disjoint contexts all survive" [ 2; 5; 6 ] (prune [ 2; 5; 6 ]);
  li "nested contexts collapse to ancestors" [ 1; 6 ] (prune [ 1; 2; 4; 6; 7 ]);
  li "duplicates collapse" [ 2 ] (prune [ 2; 2; 3 ]);
  li "unsorted input is sorted first" [ 1; 6 ] (prune [ 7; 1; 4; 6 ]);
  li "empty input" [] (prune []);
  (* disjointness: consecutive survivors never overlap *)
  let pruned = Sj.prune_covered v (List.map p [ 2; 5; 6; 8 ]) in
  let rec disjoint = function
    | a :: (b :: _ as rest) -> Sj.subtree_end v a <= b && disjoint rest
    | _ -> true
  in
  Alcotest.(check bool) "surviving regions are disjoint" true (disjoint pruned)

(* Property, on random documents with heavy slack: pruning never changes
   what a descendant scan produces, and the surviving regions partition it
   — exactly the contract the parallel range plan depends on. *)
let prop_prune_covered =
  let open QCheck2 in
  let gen = Gen.pair Testsupport.gen_doc (Gen.list_size (Gen.int_range 0 12) Gen.nat) in
  Test.make ~name:"prune_covered partitions the descendant scan" ~count:150
    ~print:(fun (d, picks) ->
      Printf.sprintf "%s / picks [%s]" (Testsupport.print_doc d)
        (String.concat ";" (List.map string_of_int picks)))
    gen
    (fun (d, picks) ->
      let t = Up.of_dom ~page_bits:2 ~fill:0.6 d in
      let v = Testsupport.view t in
      let _, rev = Ord.mapping v in
      let count = Hashtbl.length rev in
      let ctxs = List.map (fun k -> Hashtbl.find rev (k mod count)) picks in
      let pruned = Sj.prune_covered v ctxs in
      (* survivors are a sorted duplicate-free subset of the input *)
      let sorted_subset =
        pruned = List.sort_uniq compare pruned
        && List.for_all (fun c -> List.mem c ctxs) pruned
      in
      let rec disjoint = function
        | a :: (b :: _ as rest) -> Sj.subtree_end v a <= b && disjoint rest
        | _ -> true
      in
      (* the pruned regions produce the same union, region by region *)
      let by_regions =
        List.concat_map
          (fun c ->
            let acc = ref [] in
            Sj.iter_descendants v c (fun pre -> acc := pre :: !acc);
            List.rev !acc)
          pruned
      in
      sorted_subset && disjoint pruned && by_regions = Sj.descendants v ctxs)

(* A node whose size is negative (an ancestor delta applied with the wrong
   sign or count) makes [pre + size + 1] stand still; every hopping scan
   must then raise, not spin. The corrupt plane is a read-only store with
   one size cell overridden. *)
module Corrupt = struct
  include Core.Schema_ro

  let size t pre = if pre = 1 then -1 else size t pre
end

module Sj_corrupt = Core.Staircase.Make (Corrupt)

let test_negative_size_raises () =
  let t = Core.Schema_ro.of_dom (Xml.Xml_parser.parse "<r><a/><b/></r>") in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Failure on a negative size" name
    | exception Failure _ -> ()
  in
  raises "children" (fun () -> ignore (Sj_corrupt.children t [ 0 ]));
  raises "subtree_end" (fun () -> ignore (Sj_corrupt.subtree_end t 0));
  raises "following-sibling" (fun () ->
      ignore (Sj_corrupt.following_siblings t [ 1 ]));
  raises "parent" (fun () -> ignore (Sj_corrupt.parent_of t 2))

let () =
  Alcotest.run "staircase"
    [ ( "slack",
        [ Alcotest.test_case "sibling hop undershoots onto deeper descendant"
            `Quick test_undershoot_after_delete;
          Alcotest.test_case "contexts adjacent to free runs" `Quick
            test_context_adjacent_to_free_run;
          Alcotest.test_case "axes across empty pages" `Quick test_empty_pages;
          Alcotest.test_case "negative size raises instead of looping" `Quick
            test_negative_size_raises
        ] );
      ( "prune_covered",
        [ Alcotest.test_case "unit cases" `Quick test_prune_covered_units;
          Testsupport.qcheck_case prop_prune_covered
        ] )
    ]
