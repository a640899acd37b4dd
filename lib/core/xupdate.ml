module Dom = Xml.Dom
module Qname = Xml.Qname
module E = Engine.Make (View)
module Sj = Staircase.Make (View)

type content_item = Node of Dom.node | Attr of Qname.t * string

type command =
  | Remove of Xpath.Xpath_ast.path
  | Insert_before of Xpath.Xpath_ast.path * content_item list
  | Insert_after of Xpath.Xpath_ast.path * content_item list
  | Append of Xpath.Xpath_ast.path * int option * content_item list
  | Update of Xpath.Xpath_ast.path * string
  | Rename of Xpath.Xpath_ast.path * Qname.t

exception Parse_error of string

exception Apply_error of string

let pfail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let afail fmt = Printf.ksprintf (fun m -> raise (Apply_error m)) fmt

let is_xu (q : Qname.t) local = q.Qname.prefix = "xupdate" && q.Qname.local = local

let attr_of e name =
  List.find_map
    (fun ((q : Qname.t), v) -> if q.Qname.prefix = "" && q.Qname.local = name then Some v else None)
    e.Dom.attrs

let required_attr e name what =
  match attr_of e name with
  | Some v -> v
  | None -> pfail "%s requires a %S attribute" what name

let parse_select e what =
  let src = required_attr e "select" what in
  match Xpath.Xpath_parser.parse src with
  | p -> p
  | exception Xpath.Xpath_parser.Syntax_error { pos; msg } ->
    pfail "%s: bad select %S (offset %d: %s)" what src pos msg

let ws_only s = String.for_all (function ' ' | '\t' | '\r' | '\n' -> true | _ -> false) s

let text_content e =
  String.concat ""
    (List.filter_map
       (function Dom.Text s -> Some s | Dom.Element _ | Dom.Comment _ | Dom.Pi _ -> None)
       e.Dom.children)

(* Build a literal node from content, resolving nested XUpdate constructors.
   Attribute constructors are only meaningful directly under an element
   constructor (they become its attributes). *)
let rec build_nodes children =
  let nodes, attrs =
    List.fold_left
      (fun (nodes, attrs) child ->
        match child with
        | Dom.Text s when ws_only s -> (nodes, attrs)
        | Dom.Text _ | Dom.Comment _ | Dom.Pi _ -> (child :: nodes, attrs)
        | Dom.Element e when is_xu e.Dom.name "element" ->
          let name = required_attr e "name" "xupdate:element" in
          let kids, kattrs = build_nodes e.Dom.children in
          ( Dom.Element
              { name = Qname.of_string name; attrs = kattrs; children = kids }
            :: nodes,
            attrs )
        | Dom.Element e when is_xu e.Dom.name "attribute" ->
          let name = required_attr e "name" "xupdate:attribute" in
          (nodes, (Qname.of_string name, text_content e) :: attrs)
        | Dom.Element e when is_xu e.Dom.name "text" ->
          (Dom.Text (text_content e) :: nodes, attrs)
        | Dom.Element e when is_xu e.Dom.name "comment" ->
          (Dom.Comment (text_content e) :: nodes, attrs)
        | Dom.Element e when is_xu e.Dom.name "processing-instruction" ->
          let target = required_attr e "name" "xupdate:processing-instruction" in
          (Dom.Pi { target; data = text_content e } :: nodes, attrs)
        | Dom.Element e when e.Dom.name.Qname.prefix = "xupdate" ->
          pfail "unknown XUpdate constructor xupdate:%s" e.Dom.name.Qname.local
        | Dom.Element _ -> (child :: nodes, attrs))
      ([], []) children
  in
  (List.rev nodes, List.rev attrs)

let parse_content children =
  let nodes, attrs = build_nodes children in
  List.map (fun (q, v) -> Attr (q, v)) attrs @ List.map (fun n -> Node n) nodes

let parse_command node =
  match node with
  | Dom.Element e when is_xu e.Dom.name "remove" ->
    Remove (parse_select e "xupdate:remove")
  | Dom.Element e when is_xu e.Dom.name "insert-before" ->
    Insert_before (parse_select e "xupdate:insert-before", parse_content e.Dom.children)
  | Dom.Element e when is_xu e.Dom.name "insert-after" ->
    Insert_after (parse_select e "xupdate:insert-after", parse_content e.Dom.children)
  | Dom.Element e when is_xu e.Dom.name "append" ->
    let child =
      match attr_of e "child" with
      | None -> None
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> Some n
        | Some _ | None -> pfail "xupdate:append: bad child position %S" s)
    in
    Append (parse_select e "xupdate:append", child, parse_content e.Dom.children)
  | Dom.Element e when is_xu e.Dom.name "update" ->
    Update (parse_select e "xupdate:update", text_content e)
  | Dom.Element e when is_xu e.Dom.name "rename" ->
    let name = String.trim (text_content e) in
    let q =
      try Qname.of_string name
      with Invalid_argument _ -> pfail "xupdate:rename: bad name %S" name
    in
    Rename (parse_select e "xupdate:rename", q)
  | Dom.Element e ->
    pfail "unknown XUpdate command <%s>" (Qname.to_string e.Dom.name)
  | Dom.Text _ | Dom.Comment _ | Dom.Pi _ ->
    pfail "expected an XUpdate command element"

let parse src =
  let d = Xml.Xml_parser.parse ~strip_ws:true src in
  let root = d.Dom.root in
  if not (is_xu root.Dom.name "modifications") then
    pfail "root element must be xupdate:modifications, got <%s>"
      (Qname.to_string root.Dom.name);
  List.map parse_command root.Dom.children

(* ----------------------------------------------------------------- apply -- *)

(* Selected tree nodes are pinned by immutable node id: earlier commands (and
   earlier targets of the same command) shift pre values, node ids never
   change. *)
let target_nodes v path =
  List.map
    (function
      | E.Node pre -> `Tree (View.read_cell v Cnode (View.pos_of_pre v pre))
      | E.Attribute { owner; qn; _ } ->
        `Attr (View.read_cell v Cnode (View.pos_of_pre v owner), qn))
    (E.eval_items v path)

let pre_of_node_exn v node what =
  let pos = View.node_pos_get v node in
  if pos = Column.Varray.null then afail "%s: target vanished mid-command" what
  else View.pre_of_pos v pos

let split_content what content =
  let attrs = List.filter_map (function Attr (q, s) -> Some (q, s) | Node _ -> None) content in
  let nodes = List.filter_map (function Node n -> Some n | Attr _ -> None) content in
  (match what with
  | `Sibling when attrs <> [] ->
    afail "insert-before/after content cannot contain xupdate:attribute"
  | `Sibling | `Child -> ());
  (attrs, nodes)

let apply_command v cmd =
  match cmd with
  | Remove path ->
    let targets = target_nodes v path in
    let n = ref 0 in
    List.iter
      (fun t ->
        match t with
        | `Tree node ->
          (* Nested selections: a node removed with an earlier ancestor is
             already gone — skip silently, as XUpdate implementations do. *)
          let pos = View.node_pos_get v node in
          if pos <> Column.Varray.null then begin
            let pre = View.pre_of_pos v pos in
            if View.level v pre = 0 then afail "xupdate:remove: cannot remove the root";
            Update.delete v ~pre;
            incr n
          end
        | `Attr (node, qn) -> (
          match View.qn_id v qn with
          | None -> ()
          | Some qid -> if View.attr_remove_named v ~node ~qn:qid then incr n))
      targets;
    !n
  | Insert_before (path, content) ->
    let _, nodes = split_content `Sibling content in
    let targets = target_nodes v path in
    List.iter
      (function
        | `Tree node ->
          let pre = pre_of_node_exn v node "insert-before" in
          (try Update.insert v (Update.Before pre) nodes
           with Update.Update_error m -> afail "xupdate:insert-before: %s" m)
        | `Attr _ -> afail "xupdate:insert-before: select yields attributes")
      targets;
    List.length targets
  | Insert_after (path, content) ->
    let _, nodes = split_content `Sibling content in
    let targets = target_nodes v path in
    List.iter
      (function
        | `Tree node ->
          let pre = pre_of_node_exn v node "insert-after" in
          (try Update.insert v (Update.After pre) nodes
           with Update.Update_error m -> afail "xupdate:insert-after: %s" m)
        | `Attr _ -> afail "xupdate:insert-after: select yields attributes")
      targets;
    List.length targets
  | Append (path, child, content) ->
    let attrs, nodes = split_content `Child content in
    let targets = target_nodes v path in
    List.iter
      (function
        | `Tree node ->
          let pre = pre_of_node_exn v node "append" in
          List.iter (fun (q, s) -> Update.set_attribute v ~pre q s) attrs;
          let point =
            match child with
            | None -> Update.Last_child pre
            | Some k -> Update.Nth_child (pre, k)
          in
          (try Update.insert v point nodes
           with Update.Update_error m -> afail "xupdate:append: %s" m)
        | `Attr _ -> afail "xupdate:append: select yields attributes")
      targets;
    List.length targets
  | Rename (path, q) ->
    let items = E.eval_items v path in
    List.iter
      (function
        | E.Node pre -> (
          match View.kind v pre with
          | Kind.Element -> Update.rename_element v ~pre q
          | Kind.Text | Kind.Comment | Kind.Pi ->
            afail "xupdate:rename: target is not an element or attribute")
        | E.Attribute { owner; qn; value } ->
          let node = View.read_cell v Cnode (View.pos_of_pre v owner) in
          let pre = pre_of_node_exn v node "rename" in
          (match View.qn_id v qn with
          | Some qid -> ignore (View.attr_remove_named v ~node ~qn:qid)
          | None -> ());
          Update.set_attribute v ~pre q value)
      items;
    List.length items
  | Update (path, text) ->
    (* Targets must be pinned by node id (target_nodes), not by their pre
       values: clearing an earlier element target deletes its descendants,
       and a raw pre captured for a later target then points at a stale (or
       unused) slot. A vanished target is an error, like everywhere else.
       Freed ids return to the allocator only at commit, so a replacement
       text node can never be handed (and revive) a deleted target's id. *)
    let targets = target_nodes v path in
    let resolve node = pre_of_node_exn v node "update" in
    List.iter
      (function
        | `Attr (node, qn) -> Update.set_attribute v ~pre:(resolve node) qn text
        | `Tree node -> (
          let pre = resolve node in
          match View.kind v pre with
          | Kind.Text | Kind.Comment | Kind.Pi -> Update.set_text v ~pre text
          | Kind.Element ->
            (* replace content: drop current children, insert the text *)
            let rec clear () =
              match Sj.children v [ resolve node ] with
              | [] -> ()
              | kid :: _ ->
                Update.delete v ~pre:kid;
                clear ()
            in
            clear ();
            if text <> "" then
              Update.insert v (Update.Last_child (resolve node)) [ Dom.Text text ]))
      targets;
    List.length targets

let apply v cmds = List.fold_left (fun acc c -> acc + apply_command v c) 0 cmds

let apply_string v src = apply v (parse src)
