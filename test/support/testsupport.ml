(* Shared test machinery: sample documents, a naive DOM-side oracle for the
   XPath axes, storage<->oracle ordinal mapping, and a random document
   generator for property tests. *)

module Dom = Xml.Dom
module Qname = Xml.Qname

(* The paper's running example (Figure 2). *)
let paper_doc =
  Xml.Xml_parser.parse
    "<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>"

let small_doc =
  Xml.Xml_parser.parse ~strip_ws:true
    {|<site>
        <people>
          <person id="p0"><name>Ada</name><age>36</age></person>
          <person id="p1"><name>Grace</name><age>45</age></person>
          <person id="p2"><name>Edsger</name></person>
        </people>
        <items>
          <item id="i0"><name>pump</name><price>12.5</price>
            <desc>A <b>shiny</b> pump</desc></item>
          <item id="i1"><name>socket</name><price>3</price></item>
        </items>
        <!-- inventory snapshot -->
        <?audit date="2005-04-01"?>
      </site>|}

(* ------------------------------------------------------------- oracle -- *)

(* Nodes are identified by their document-order ordinal (0 = root). *)
type oracle = {
  doc : Dom.t;
  count : int;
  levels : int array;
  sizes : int array;
  parents : int array; (* -1 for the root *)
}

let oracle_of_doc doc =
  let psl = Dom.pre_size_level doc in
  let n = Array.length psl in
  let levels = Array.map (fun (_, _, l) -> l) psl in
  let sizes = Array.map (fun (_, s, _) -> s) psl in
  let parents = Array.make n (-1) in
  let stack = ref [] in
  Array.iteri
    (fun i (_, _, l) ->
      stack := List.filter (fun (_, pl) -> pl < l) !stack;
      (match !stack with [] -> () | (p, _) :: _ -> parents.(i) <- p);
      stack := (i, l) :: !stack)
    psl;
  { doc; count = n; levels; sizes; parents }

let rec is_ancestor o a x = a >= 0 && (o.parents.(x) = a || (o.parents.(x) >= 0 && is_ancestor o a o.parents.(x)))

let oracle_axis o (axis : Xpath.Xpath_ast.axis) i =
  let all = List.init o.count Fun.id in
  match axis with
  | Self -> [ i ]
  | Child -> List.filter (fun j -> o.parents.(j) = i) all
  | Descendant -> List.filter (fun j -> j > i && j <= i + o.sizes.(i)) all
  | Descendant_or_self -> List.filter (fun j -> j >= i && j <= i + o.sizes.(i)) all
  | Parent -> if o.parents.(i) >= 0 then [ o.parents.(i) ] else []
  | Ancestor -> List.filter (fun j -> is_ancestor o j i) all
  | Ancestor_or_self -> List.filter (fun j -> j = i || is_ancestor o j i) all
  | Following -> List.filter (fun j -> j > i + o.sizes.(i)) all
  | Preceding -> List.filter (fun j -> j < i && not (is_ancestor o j i)) all
  | Following_sibling ->
    List.filter (fun j -> j > i && o.parents.(j) = o.parents.(i) && o.parents.(i) >= 0) all
  | Preceding_sibling ->
    List.filter (fun j -> j < i && o.parents.(j) = o.parents.(i) && o.parents.(i) >= 0) all
  | Attribute -> invalid_arg "oracle_axis: attribute"

(* ------------------------------------- storage pre <-> ordinal mapping -- *)

module Ord (S : Core.Storage_intf.S) = struct
  (* Ordinal of each used pre position, by scanning; tests only. *)
  let mapping t =
    let tbl = Hashtbl.create 64 in
    let rev = Hashtbl.create 64 in
    let ord = ref 0 in
    let pre = ref (S.next_used t 0) in
    while !pre < S.extent t do
      Hashtbl.add tbl !pre !ord;
      Hashtbl.add rev !ord !pre;
      incr ord;
      pre := S.next_used t (!pre + 1)
    done;
    (tbl, rev)

  let ordinals t pres =
    let tbl, _ = mapping t in
    List.map (fun p -> Hashtbl.find tbl p) pres

  let pres_of_ordinals t ords =
    let _, rev = mapping t in
    List.map (fun o -> Hashtbl.find rev o) ords
end

(* ------------------------------------ an independent XPath evaluator -- *)

(* Evaluates the engine's XPath subset directly over the DOM — a second,
   structurally different implementation serving as the oracle for random
   query tests. Nodes are document-order ordinals; attribute steps yield
   (owner, qname, value) triples. *)
module Dom_eval = struct
  open Xpath.Xpath_ast

  type item = N of int | A of int * Qname.t * string

  type ctx = {
    o : oracle;
    nodes : Dom.node array; (* by ordinal *)
  }

  let make doc =
    { o = oracle_of_doc doc;
      nodes = Array.of_list (List.map snd (Dom.nodes_pre_order doc)) }

  let string_value c i =
    match c.nodes.(i) with
    | Dom.Text s | Dom.Comment s -> s
    | Dom.Pi p -> p.data
    | Dom.Element _ ->
      let b = Buffer.create 32 in
      for j = i + 1 to i + c.o.sizes.(i) do
        match c.nodes.(j) with
        | Dom.Text s -> Buffer.add_string b s
        | Dom.Element _ | Dom.Comment _ | Dom.Pi _ -> ()
      done;
      Buffer.contents b

  let item_string c = function N i -> string_value c i | A (_, _, v) -> v

  let matches_test c test i =
    match test, c.nodes.(i) with
    | Kind_node, _ -> true
    | Wildcard, Dom.Element _ -> true
    | Name q, Dom.Element e -> Qname.equal q e.Dom.name
    | Kind_text, Dom.Text _ -> true
    | Kind_comment, Dom.Comment _ -> true
    | Kind_pi None, Dom.Pi _ -> true
    | Kind_pi (Some t), Dom.Pi p -> String.equal p.target t
    | (Wildcard | Name _ | Kind_text | Kind_comment | Kind_pi _), _ -> false

  (* axis order: reverse axes nearest-first, as positions count; ordinal -1
     is the virtual document node *)
  let axis_items c axis i =
    if i = -1 then
      match axis with
      | Child -> [ 0 ]
      | Descendant | Descendant_or_self -> List.init c.o.count Fun.id
      | _ -> []
    else
      let fwd = oracle_axis c.o axis i in
      match axis with
      | Ancestor | Ancestor_or_self | Preceding | Preceding_sibling -> List.rev fwd
      | _ -> fwd

  let rec eval_steps c ctxs steps =
    match steps with
    | [] -> List.map (fun i -> N i) ctxs
    | [ { axis = Attribute; test; preds } ] ->
      let attrs =
        List.concat_map
          (fun i ->
            if i < 0 then []
            else
            match c.nodes.(i) with
            | Dom.Element e ->
              List.filter_map
                (fun (q, v) ->
                  let keep =
                    match test with
                    | Name q' -> Qname.equal q q'
                    | Wildcard | Kind_node -> true
                    | Kind_text | Kind_comment | Kind_pi _ -> false
                  in
                  if keep then Some (A (i, q, v)) else None)
                e.Dom.attrs
            | Dom.Text _ | Dom.Comment _ | Dom.Pi _ -> [])
          ctxs
      in
      List.fold_left (apply_pred c) attrs preds
    | { axis = Attribute; _ } :: _ :: _ -> invalid_arg "dom_eval: attr mid-path"
    | { axis; test; preds } :: rest ->
      let out =
        List.concat_map
          (fun i ->
            let cands =
              List.filter (matches_test c test) (axis_items c axis i)
            in
            let survivors =
              List.fold_left (apply_pred c) (List.map (fun x -> N x) cands) preds
            in
            List.filter_map (function N x -> Some x | A _ -> None) survivors)
          ctxs
      in
      eval_steps c (List.sort_uniq compare out) rest

  and apply_pred c items pred =
    match pred with
    | Pos n -> ( match List.nth_opt items (n - 1) with Some it -> [ it ] | None -> [])
    | Last -> ( match List.rev items with it :: _ -> [ it ] | [] -> [])
    | _ -> List.filter (fun it -> eval_pred c it pred) items

  and eval_pred c it = function
    | Pos _ | Last -> assert false
    | And (a, b) -> eval_pred c it a && eval_pred c it b
    | Or (a, b) -> eval_pred c it a || eval_pred c it b
    | Not p -> not (eval_pred c it p)
    | Exists p -> eval_rel c it p <> []
    | Contains (a, b) -> (
      match value c it a, value c it b with
      | Some x, Some y ->
        let nx = String.length x and ny = String.length y in
        let rec go i = i + ny <= nx && (String.sub x i ny = y || go (i + 1)) in
        ny = 0 || go 0
      | _ -> false)
    | Cmp (a, op, b) -> (
      (* mirrors the engine: None -> false; numeric if either side is a
         number; non-numeric strings compare lexicographically *)
      match evalue c it a, evalue c it b with
      | `None, _ | _, `None -> false
      | va, vb ->
        let numeric = match va, vb with `N _, _ | _, `N _ -> true | _ -> false in
        if numeric then
          let tonum = function
            | `N f -> Some f
            | `S s -> float_of_string_opt (String.trim s)
            | `None -> None
          in
          (match tonum va, tonum vb with
          | Some x, Some y ->
            (match op with
            | Eq -> x = y
            | Neq -> x <> y
            | Lt -> x < y
            | Le -> x <= y
            | Gt -> x > y
            | Ge -> x >= y)
          | _ -> false)
        else
          let tostr = function
            | `S s -> s
            | `N f ->
              if Float.is_integer f then string_of_int (int_of_float f)
              else string_of_float f
            | `None -> ""
          in
          let x = tostr va and y = tostr vb in
          (match op with
          | Eq -> String.equal x y
          | Neq -> not (String.equal x y)
          | Lt -> String.compare x y < 0
          | Le -> String.compare x y <= 0
          | Gt -> String.compare x y > 0
          | Ge -> String.compare x y >= 0))

  and evalue c it = function
    | Lit_str s -> `S s
    | Lit_num f -> `N f
    | Ctx_string -> `S (item_string c it)
    | Path_string p -> (
      match eval_rel c it p with [] -> `None | first :: _ -> `S (item_string c first))
    | Count p -> `N (float_of_int (List.length (eval_rel c it p)))

  and value c it v =
    match evalue c it v with
    | `S s -> Some s
    | `N f ->
      Some (if Float.is_integer f then string_of_int (int_of_float f) else string_of_float f)
    | `None -> None

  and eval_rel c it p =
    if p.absolute then eval_steps c [ -1 ] p.steps
    else match it with N i -> eval_steps c [ i ] p.steps | A _ -> []


  let eval c (p : path) =
    (* the virtual document node is ordinal -1; Child from it is the root *)
    if p.absolute then
      if p.steps = [] then [ N 0 ] else eval_steps c [ -1 ] p.steps
    else eval_steps c [ 0 ] p.steps
end


(* ------------------------------------------- ordinal <-> DOM path map -- *)

(* Child-index path of the node with a given document-order ordinal. *)
let path_of_ordinal doc ord =
  let counter = ref (-1) in
  let exception Found of int list in
  let rec go path (n : Dom.node) =
    incr counter;
    if !counter = ord then raise (Found (List.rev path));
    match n with
    | Dom.Element e -> List.iteri (fun i c -> go (i :: path) c) e.children
    | Dom.Text _ | Dom.Comment _ | Dom.Pi _ -> ()
  in
  match go [] (Dom.Element doc.Dom.root) with
  | () -> raise Not_found
  | exception Found p -> p

let children_count doc path =
  match Dom.node_at doc path with
  | Dom.Element e -> List.length e.children
  | Dom.Text _ | Dom.Comment _ | Dom.Pi _ -> 0

(* ------------------------------------------------------ random inputs -- *)

(* Random documents, XPath paths and XUpdate scripts live in gen.ml; the
   document generator is used by most suites, so it is also included at
   top level. *)
module Gen = Gen
include Gen

(* --------------------------------------------- reproducible properties -- *)

(* One process-wide PRNG seed for all property suites: taken from
   QCHECK_SEED when set, self-chosen otherwise, and always announced on
   stderr so any failure replays with `QCHECK_SEED=<n> dune runtest`. *)
let qcheck_seed =
  lazy
    (let seed =
       match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
       | Some s -> s
       | None ->
         Random.self_init ();
         Random.int 1_000_000_000
     in
     Printf.eprintf "qcheck random seed: %d (replay: QCHECK_SEED=%d dune runtest)\n%!"
       seed seed;
     seed)

(* Each case gets its own stream, derived from the seed and the (stable)
   registration order, so filtering the alcotest run never shifts streams. *)
let qcheck_count = ref 0

let qcheck_case test =
  incr qcheck_count;
  let rand = Random.State.make [| Lazy.force qcheck_seed; !qcheck_count |] in
  QCheck_alcotest.to_alcotest ~rand test

(* The library name doubles as the module name, which hides sibling modules
   in this directory; re-export them explicitly. *)
module Oracle = Oracle
