(* Random inputs for the property suites: documents, XPath paths and
   XUpdate command lists. Names come from small fixed alphabets so that
   generated paths and update targets actually hit generated nodes. *)

open struct
  module Dom = Xml.Dom
  module Qname = Xml.Qname
  module Xupdate = Core.Xupdate
end

open Xpath.Xpath_ast

(* --------------------------------------------------- random documents -- *)

let names = [| "a"; "b"; "c"; "item"; "name"; "x"; "y" |]

let attr_names = [| "id"; "k"; "v" |]

let gen_doc : Dom.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let gen_name = oneofa names in
  let gen_text = map (fun i -> "t" ^ string_of_int i) (int_bound 30) in
  let gen_attrs =
    let* n = int_bound 2 in
    let rec distinct acc k =
      if k = 0 then return acc
      else
        let* a = oneofa attr_names in
        if List.mem_assoc a acc then distinct acc k
        else
          let* v = gen_text in
          distinct ((a, v) :: acc) (k - 1)
    in
    let* pairs = distinct [] n in
    return (List.map (fun (a, v) -> (Qname.make a, v)) pairs)
  in
  let rec gen_node depth budget =
    if depth = 0 || budget <= 1 then
      oneof
        [ map (fun s -> Dom.Text s) gen_text;
          map (fun s -> Dom.Comment s) gen_text;
          (let* name = gen_name in
           let* attrs = gen_attrs in
           return (Dom.Element { name = Qname.make name; attrs; children = [] })) ]
    else
      frequency
        [ (2, map (fun s -> Dom.Text s) gen_text);
          (1, map (fun s -> Dom.Comment s) gen_text);
          ( 1,
            map
              (fun s -> Dom.Pi { target = "pi"; data = s })
              gen_text );
          ( 5,
            let* name = gen_name in
            let* attrs = gen_attrs in
            let* k = int_bound (min 4 (budget - 1)) in
            let* children = gen_children depth (budget - 1) k in
            return (Dom.Element { name = Qname.make name; attrs; children }) ) ]
  and gen_children depth budget k =
    if k = 0 then return []
    else
      let* c = gen_node (depth - 1) (budget / k) in
      let* rest = gen_children depth budget (k - 1) in
      return (c :: rest)
  in
  let* budget = int_range 1 60 in
  let* name = gen_name in
  let* attrs = gen_attrs in
  let* k = int_bound 5 in
  let* children = gen_children 5 budget k in
  (* Normalised: adjacent text nodes are indistinguishable after one
     serialise/parse cycle, so round-trip laws hold only on this form. *)
  return (Dom.normalize { Dom.root = { name = Qname.make name; attrs; children } })

let print_doc d = Xml.Xml_serialize.to_string ~indent:true d

(* ----------------------------------------------------- path generators -- *)

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
    [ (6, map (fun n -> Name (Qname.make n)) (oneofa names));
      (2, return Wildcard);
      (1, return Kind_node);
      (1, return Kind_text);
      (1, return Kind_comment);
      (1, oneofl [ Kind_pi None; Kind_pi (Some "pi") ]) ]

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
  let* absolute = bool in
  let* nsteps = int_range 1 3 in
  let* steps = list_repeat nsteps gen_step in
  let* attr_tail =
    frequency
      [ (4, return None);
        ( 1,
          let* a = oneofa attr_names in
          let* preds =
            frequency
              [ (4, return []);
                (1, map (fun p -> [ p ]) (gen_pred ~depth:1 (fun d -> gen_path d))) ]
          in
          return (Some { axis = Attribute; test = Name (Qname.make a); preds }) ) ]
  in
  let steps = match attr_tail with None -> steps | Some s -> steps @ [ s ] in
  return { absolute; steps }

(* -------------------------------------------------- update generators -- *)

let gen_text = QCheck2.Gen.(map (fun i -> "t" ^ string_of_int i) (int_bound 30))

let gen_content_node =
  let open QCheck2.Gen in
  let* depth = int_bound 1 in
  let rec go depth =
    let leaf =
      frequency
        [ (3, map Dom.text gen_text);
          (1, map (fun s -> Dom.Comment s) gen_text);
          (1, map (fun s -> Dom.Pi { target = "pi"; data = s }) gen_text) ]
    in
    let elem =
      let* name = oneofa names in
      let* attrs =
        frequency
          [ (3, return []);
            ( 1,
              let* a = oneofa attr_names in
              let* s = gen_text in
              return [ (Qname.make a, s) ] ) ]
      in
      let* children =
        if depth <= 0 then return [] else list_size (int_bound 2) (go (depth - 1))
      in
      return (Dom.Element { Dom.name = Qname.make name; attrs; children })
    in
    frequency [ (3, elem); (2, leaf) ]
  in
  go depth

(* A content forest: node items, occasionally an xupdate:attribute item
   (valid only for append; sibling inserts must reject it on both sides). *)
let gen_content =
  let open QCheck2.Gen in
  let* nodes =
    list_size (int_bound 2) (map (fun n -> Xupdate.Node n) gen_content_node)
  in
  let* attr =
    frequency
      [ (5, return []);
        ( 1,
          let* a = oneofa attr_names in
          let* s = gen_text in
          return [ Xupdate.Attr (Qname.make a, s) ] ) ]
  in
  return (attr @ nodes)

(* Update targets: short paths so commands actually hit something, but any
   generated path is fair game — unusable targets must error identically on
   both sides. *)
let gen_target =
  let open QCheck2.Gen in
  let* p = gen_path 1 in
  let* nsteps = int_range 1 2 in
  let steps = List.filteri (fun i _ -> i < nsteps) p.steps in
  return { p with steps }

let gen_command =
  let open QCheck2.Gen in
  frequency
    [ (3, map (fun p -> Xupdate.Remove p) gen_target);
      ( 2,
        let* p = gen_target in
        let* c = gen_content in
        return (Xupdate.Insert_before (p, c)) );
      ( 2,
        let* p = gen_target in
        let* c = gen_content in
        return (Xupdate.Insert_after (p, c)) );
      ( 3,
        let* p = gen_target in
        let* child =
          frequency [ (3, return None); (1, map (fun k -> Some (1 + k)) (int_bound 3)) ]
        in
        let* c = gen_content in
        return (Xupdate.Append (p, child, c)) );
      ( 3,
        let* p = gen_target in
        let* s = frequency [ (4, gen_text); (1, return "") ] in
        return (Xupdate.Update (p, s)) );
      ( 2,
        let* p = gen_target in
        let* n = oneof [ oneofa names; oneofa attr_names ] in
        return (Xupdate.Rename (p, Qname.make n)) ) ]

let gen_cmds = QCheck2.Gen.(list_size (int_range 1 3) gen_command)

let show_content c =
  String.concat ""
    (List.map
       (function
         | Xupdate.Node n -> Xml.Xml_serialize.node_to_string n
         | Xupdate.Attr (q, s) ->
           Printf.sprintf "<xupdate:attribute name=%S>%s</xupdate:attribute>"
             (Qname.to_string q) s)
       c)

let show_command = function
  | Xupdate.Remove p -> Printf.sprintf "remove[%s]" (to_string p)
  | Xupdate.Insert_before (p, c) ->
    Printf.sprintf "insert-before[%s]{%s}" (to_string p) (show_content c)
  | Xupdate.Insert_after (p, c) ->
    Printf.sprintf "insert-after[%s]{%s}" (to_string p) (show_content c)
  | Xupdate.Append (p, k, c) ->
    Printf.sprintf "append[%s]%s{%s}" (to_string p)
      (match k with None -> "" | Some k -> Printf.sprintf "@%d" k)
      (show_content c)
  | Xupdate.Update (p, s) -> Printf.sprintf "update[%s]'%s'" (to_string p) s
  | Xupdate.Rename (p, q) ->
    Printf.sprintf "rename[%s]->%s" (to_string p) (Qname.to_string q)
