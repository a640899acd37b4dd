type payload =
  | El of Xml.Qname.t * (Xml.Qname.t * string) list
  | Tx of string
  | Cm of string
  | Pr of string * string

type item = { size : int; level : int; payload : payload }

let rec forest_count nodes =
  List.fold_left
    (fun acc n ->
      acc + 1
      +
      match (n : Xml.Dom.node) with
      | Xml.Dom.Element e -> forest_count e.children
      | Xml.Dom.Text _ | Xml.Dom.Comment _ | Xml.Dom.Pi _ -> 0)
    0 nodes

let sequence_forest nodes =
  let n = forest_count nodes in
  let items = Array.make (max n 1) { size = 0; level = 0; payload = Tx "" } in
  let next = ref 0 in
  (* Returns the subtree size of the visited node. *)
  let rec visit level (node : Xml.Dom.node) =
    let pre = !next in
    incr next;
    let size, payload =
      match node with
      | Xml.Dom.Element e ->
        let sz =
          List.fold_left (fun acc c -> acc + 1 + visit (level + 1) c) 0 e.children
        in
        (sz, El (e.name, e.attrs))
      | Xml.Dom.Text s -> (0, Tx s)
      | Xml.Dom.Comment s -> (0, Cm s)
      | Xml.Dom.Pi p -> (0, Pr (p.target, p.data))
    in
    items.(pre) <- { size; level; payload };
    size
  in
  List.iter (fun node -> ignore (visit 0 node)) nodes;
  assert (!next = n);
  Array.sub items 0 n

let sequence d = sequence_forest [ Xml.Dom.Element d.Xml.Dom.root ]
