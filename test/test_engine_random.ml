(* Randomised engine verification: random XPath expressions over random
   documents, evaluated by the storage engine on Schema_ro, Schema_up and a
   View snapshot, sequentially and on a 2-domain pool, and checked against
   the independent DOM evaluator (Testsupport.Dom_eval). The oracle
   evaluates `//x` as the two steps the parser makes of it, so it also
   checks the engine's fusing of them into one descendant step. *)

module Qname = Xml.Qname
module Ro = Core.Schema_ro
module Up = Core.Schema_up
module De = Testsupport.Dom_eval
open Xpath.Xpath_ast

(* ------------------------------------------------- random path generator -- *)

let gen_axis =
  QCheck2.Gen.frequency
    [ (6, QCheck2.Gen.return Child);
      (3, QCheck2.Gen.return Descendant);
      (2, QCheck2.Gen.return Descendant_or_self);
      (1, QCheck2.Gen.return Self);
      (1, QCheck2.Gen.return Parent);
      (1, QCheck2.Gen.return Ancestor);
      (1, QCheck2.Gen.return Ancestor_or_self);
      (1, QCheck2.Gen.return Following);
      (1, QCheck2.Gen.return Preceding);
      (1, QCheck2.Gen.return Following_sibling);
      (1, QCheck2.Gen.return Preceding_sibling) ]

let gen_test =
  let open QCheck2.Gen in
  frequency
    [ (5, map (fun n -> Name (Qname.make n)) (oneofa Testsupport.names));
      (2, return Wildcard);
      (1, return Kind_node);
      (1, return Kind_text);
      (1, return Kind_comment) ]

let gen_value ~depth gen_path =
  let open QCheck2.Gen in
  frequency
    ([ (2, map (fun i -> Lit_str ("t" ^ string_of_int i)) (int_bound 30));
       (2, map (fun i -> Lit_num (float_of_int i)) (int_bound 9));
       (1, return Ctx_string) ]
    @
    if depth <= 0 then []
    else
      [ (2, map (fun p -> Path_string p) (gen_path (depth - 1)));
        (1, map (fun p -> Count p) (gen_path (depth - 1))) ])

let gen_cmpop = QCheck2.Gen.oneofl [ Eq; Neq; Lt; Le; Gt; Ge ]

(* boolean (non-positional) predicates, usable inside and/or/not *)
let rec gen_bool_pred ~depth gen_path =
  let open QCheck2.Gen in
  if depth <= 0 then
    let* a = gen_value ~depth:0 gen_path in
    let* op = gen_cmpop in
    let* b = gen_value ~depth:0 gen_path in
    return (Cmp (a, op, b))
  else
    frequency
      [ ( 3,
          let* a = gen_value ~depth gen_path in
          let* op = gen_cmpop in
          let* b = gen_value ~depth gen_path in
          return (Cmp (a, op, b)) );
        (2, map (fun p -> Exists p) (gen_path (depth - 1)));
        ( 1,
          let* a = gen_value ~depth gen_path in
          let* b = gen_value ~depth gen_path in
          return (Contains (a, b)) );
        ( 1,
          let* a = gen_bool_pred ~depth:(depth - 1) gen_path in
          let* b = gen_bool_pred ~depth:(depth - 1) gen_path in
          oneofl [ And (a, b); Or (a, b); Not a ] ) ]

let gen_pred ~depth gen_path =
  let open QCheck2.Gen in
  frequency
    ([ (3, map (fun n -> Pos (1 + n)) (int_bound 3)); (1, return Last) ]
    @ if depth <= 0 then [] else [ (6, gen_bool_pred ~depth gen_path) ])

let rec gen_path depth : path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let gen_step =
    let* axis = gen_axis in
    let* test = gen_test in
    let* npreds = frequency [ (5, return 0); (3, return 1); (1, return 2) ] in
    let* preds = list_repeat npreds (gen_pred ~depth (fun d -> gen_path d)) in
    return { axis; test; preds }
  in
  (* `//x[p]`: descendant-or-self::node() then a child step, whose
     predicates may be positional (the engine keeps those two steps) or
     not (it fuses them into one descendant step) *)
  let gen_steps =
    frequency
      [ (3, map (fun s -> [ s ]) gen_step);
        ( 2,
          let* s = gen_step in
          return
            [ { axis = Descendant_or_self; test = Kind_node; preds = [] };
              { s with axis = Child } ] ) ]
  in
  let* absolute = bool in
  let* nsteps = int_range 1 3 in
  let* steps = map List.concat (list_repeat nsteps gen_steps) in
  (* optionally end on an attribute step *)
  let* attr_tail = frequency [ (4, return None); (1, map Option.some (oneofa Testsupport.attr_names)) ] in
  let steps =
    match attr_tail with
    | None -> steps
    | Some a -> steps @ [ { axis = Attribute; test = Name (Qname.make a); preds = [] } ]
  in
  return { absolute; steps }

(* ------------------------------------------------------------ the check -- *)

(* One engine instance's answer with nodes as document-order ordinals, the
   oracle's numbering. *)
module Answer (S : Core.Storage_intf.S) = struct
  module E = Core.Engine.Make (S)
  module O = Testsupport.Ord (S)

  let eval ?par t p =
    let tbl, _ = O.mapping t in
    let ord = Hashtbl.find tbl in
    List.map
      (function
        | E.Node pre -> `N (ord pre)
        | E.Attribute { owner; qn; value } -> `A (ord owner, Qname.to_string qn, value))
      (E.eval_items ?par t p)
end

module A_ro = Answer (Core.Schema_ro)
module A_up = Answer (Core.Schema_up)
module A_view = Answer (Core.View)

(* cutoffs of 1: every step this small document offers is partitioned *)
let pool = lazy (Core.Par.create ~range_cutoff:1 ~ctx_cutoff:1 ~domains:2 ())

let () = at_exit (fun () -> if Lazy.is_val pool then Core.Par.shutdown (Lazy.force pool))

let check_doc_path d p =
  let oracle =
    List.sort compare
      (List.map
         (function De.N i -> `N i | De.A (i, q, v) -> `A (i, Qname.to_string q, v))
         (De.eval (De.make d) p))
  in
  let ro = Ro.of_dom d in
  let up = Up.of_dom ~page_bits:2 ~fill:0.6 d in
  let view = Testsupport.view up in
  let par = Lazy.force pool in
  let answers =
    [ ("ro", A_ro.eval ro p, A_ro.eval ~par ro p);
      ("up", A_up.eval up p, A_up.eval ~par up p);
      ("view", A_view.eval view p, A_view.eval ~par view p) ]
  in
  List.fold_left
    (fun acc (name, seq, par) ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        if List.sort compare seq <> oracle then
          Error (name ^ " disagrees with the DOM evaluator")
        else if par <> seq then Error (name ^ ": the 2-domain pool's answer differs")
        else Ok ())
    (Ok ()) answers

let gen_case =
  let open QCheck2.Gen in
  let* d = Testsupport.gen_doc in
  let* p = gen_path 2 in
  return (d, p)

let print_case (d, p) =
  Printf.sprintf "path: %s\ndoc: %s" (Xpath.Xpath_ast.to_string p)
    (Testsupport.print_doc d)

let prop_random_queries =
  QCheck2.Test.make ~name:"random XPath agrees with the DOM evaluator (ro, up, view)"
    ~count:600 ~print:print_case gen_case (fun (d, p) ->
      match check_doc_path d p with
      | Ok () -> true
      | Error m -> QCheck2.Test.fail_report m)

(* Also pin a set of tricky fixed expressions on the structured sample. *)
let tricky =
  [ "//person[age > 40]/@id";
    "/site/*/person[last()]/name";
    "//name[../@id = 'p1']";
    "//item[not(contains(desc, 'shiny'))]/@id";
    "//person[count(*) >= 2][2]/name";
    "/descendant::text()[3]";
    "//*[following-sibling::items]";
    "//b/ancestor::item/@id";
    "//person[1]/following::comment()";
    "//node()[preceding-sibling::person[2]]";
    "//*[. = 'Ada']";
    "//person[@id >= 'p1']/@id" ]

let test_tricky_fixed () =
  List.iter
    (fun src ->
      let p = Xpath.Xpath_parser.parse src in
      match check_doc_path Testsupport.small_doc p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" src m)
    tricky

let () =
  Alcotest.run "engine_random"
    [ ( "oracle",
        [ Alcotest.test_case "tricky fixed expressions" `Quick test_tricky_fixed;
          Testsupport.qcheck_case prop_random_queries ] ) ]
