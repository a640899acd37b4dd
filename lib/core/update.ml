open Column

module Sj = Staircase.Make (View)

type insert_point =
  | First_child of int
  | Last_child of int
  | Nth_child of int * int
  | Before of int
  | After of int

exception Update_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Update_error m)) fmt

type cost = {
  mutable moved_tuples : int;
  mutable new_pages : int;
  mutable blanked_tuples : int;
}

let costs = { moved_tuples = 0; new_pages = 0; blanked_tuples = 0 }

let m_inserts = Obs.counter ~help:"structural insert operations" "schema_up.inserts"

let m_inserted_tuples =
  Obs.counter ~help:"tuples added by inserts" "schema_up.inserted_tuples"

let m_deletes = Obs.counter ~help:"structural delete operations" "schema_up.deletes"

let m_deleted_tuples =
  Obs.counter ~help:"tuples blanked by deletes" "schema_up.deleted_tuples"

let m_overflows =
  Obs.counter ~help:"inserts that overflowed a logical page (Figure 7b splits)"
    "schema_up.page_overflows"

let m_overflow_pages =
  Obs.counter ~help:"fresh pages appended by overflowing inserts"
    "schema_up.overflow_pages"

let m_compactions =
  Obs.counter ~help:"inserts that compacted their page" "schema_up.page_compactions"

let reset_costs () =
  costs.moved_tuples <- 0;
  costs.new_pages <- 0;
  costs.blanked_tuples <- 0

(* Page images and runs share one layout: five columns indexed by
   [Schema_up.col_index]. *)
let c_level = Schema_up.col_index Clevel

let c_node = Schema_up.col_index Cnode

let blank page off =
  page.(c_level).(off) <- Varray.null;
  page.(c_node).(off) <- Varray.null

(* Tuples to place, in document order, with each tuple's current position
   ([null] for a new node). *)
type run = { cols : int array array; from : int array }

(* Prepare the new tuples of a forest: allocate node ids, intern names, push
   pool values, register attributes. *)
let prepare_forest v ~parent_level nodes =
  let tuples =
    Array.map
      (fun { Shred.size; level; payload } ->
        let node = View.fresh_node_id v in
        let name =
          match payload with
          | Shred.El (q, attrs) ->
            let qid = View.intern_qn v q in
            List.iter
              (fun (aq, av) ->
                View.attr_add v ~node ~qn:(View.intern_qn v aq)
                  ~prop:(View.intern_prop v av))
              attrs;
            qid
          | Shred.Tx s -> View.push_text v s
          | Shred.Cm s -> View.push_comment v s
          | Shred.Pr (target, data) -> View.push_pi v ~target ~data
        in
        (* in [Schema_up.col] order *)
        [| size; parent_level + 1 + level;
           Kind.to_int (Shred.kind_of_payload payload); name; node |])
      (Shred.sequence_forest nodes)
  in
  { cols = Array.init 5 (fun c -> Array.map (fun t -> t.(c)) tuples);
    from = Array.make (Array.length tuples) Varray.null }

(* The used tuples at offsets [lo, hi) of the page image at [base]. *)
let used_run page ~base lo hi =
  let level = page.(c_level) in
  let offs =
    Array.of_seq
      (Seq.filter (fun off -> level.(off) <> Varray.null) (Seq.init (hi - lo) (( + ) lo)))
  in
  { cols = Array.map (fun col -> Array.map (Array.get col) offs) page;
    from = Array.map (( + ) base) offs }

let cat a b =
  { cols = Array.map2 Array.append a.cols b.cols; from = Array.append a.from b.from }

(* Write tuples [i, i + len) of [r] into private page [phys] from offset
   [off]; node/pos changes only for the tuples that land somewhere new. *)
let put v ~phys ~off r i len =
  let page = View.private_page v phys in
  Array.iteri (fun c col -> Array.blit col i page.(c) off len) r.cols;
  let base = phys lsl View.page_bits v in
  for k = 0 to len - 1 do
    let pos = base + off + k and from = r.from.(i + k) in
    if pos <> from then begin
      View.node_pos_set v r.cols.(c_node).(i + k) pos;
      if from <> Varray.null then costs.moved_tuples <- costs.moved_tuples + 1
    end
  done

(* The Figure 7 insert: place [news] directly after the used view position
   [prev]. *)
let insert_after_prev v ~prev news =
  let p = View.page_size v and bits = View.page_bits v in
  let prev_pos = View.pos_of_pre v prev in
  let phys = prev_pos lsr bits and prev_off = prev_pos land (p - 1) in
  let base = phys lsl bits in
  let page = View.private_page v phys in
  let level = page.(c_level) in
  let m = Array.length news.from in
  (* The end [e] of the shortest window [(prev_off, e]] with [m] free slots. *)
  let rec window_end off free =
    if off >= p then None
    else
      let free = if level.(off) = Varray.null then free + 1 else free in
      if free = m then Some off else window_end (off + 1) free
  in
  (match window_end (prev_off + 1) 0 with
  | Some e ->
    (* Figure 7a: the new tuples, then the window's used tuples, fill the
       window; tuples before the point and after the window stay put. *)
    put v ~phys ~off:(prev_off + 1)
      (cat news (used_run page ~base (prev_off + 1) (e + 1)))
      0 (e - prev_off)
  | None when Array.fold_left (fun n l -> if l = Varray.null then n + 1 else n) 0 level >= m ->
    (* Room only before the point: compact the page around the new tuples. *)
    let r =
      cat
        (cat (used_run page ~base 0 (prev_off + 1)) news)
        (used_run page ~base (prev_off + 1) p)
    in
    let n = Array.length r.from in
    put v ~phys ~off:0 r 0 n;
    for off = n to p - 1 do
      blank page off
    done;
    Obs.inc m_compactions
  | None ->
    (* Figure 7b: fill the page tail; the remaining new tuples and the old
       tail go to freshly appended pages spliced in logically. *)
    let r = cat news (used_run page ~base (prev_off + 1) p) in
    let tail = p - 1 - prev_off in
    put v ~phys ~off:(prev_off + 1) r 0 tail;
    let n = Array.length r.from in
    let k = (n - tail + p - 1) / p in
    let fresh = View.splice_pages v ~at_logical:((prev lsr bits) + 1) ~count:k in
    costs.new_pages <- costs.new_pages + k;
    Obs.inc m_overflows;
    Obs.add m_overflow_pages k;
    List.iteri
      (fun j pg ->
        let i = tail + (j * p) in
        put v ~phys:pg ~off:0 r i (min p (n - i));
        Schema_up.recompute_free_runs (View.private_page v pg))
      fresh);
  Schema_up.recompute_free_runs page

let node_id_at v pre = View.read_cell v Cnode (View.pos_of_pre v pre)

(* Ancestor chain as node ids, computed before any slot moves (one top-down
   descend; see Staircase.ancestors). *)
let ancestor_nodes v pre = List.map (node_id_at v) (Sj.ancestors v [ pre ])

let require_element v pre what =
  if View.kind v pre <> Kind.Element then
    fail "%s: target at pre %d is not an element" what pre

(* Resolve an insert point to (parent_pre, prev): the new forest goes
   directly after the used view position [prev], as children of parent. *)
let resolve_point v = function
  | First_child p ->
    require_element v p "insert first-child";
    (p, p)
  | Last_child p ->
    require_element v p "insert last-child";
    (p, View.prev_used v (Sj.subtree_end v p - 1))
  | Nth_child (p, k) ->
    require_element v p "insert nth-child";
    let kids = Sj.children v [ p ] in
    let nkids = List.length kids in
    if k < 1 || k > nkids + 1 then
      fail "insert nth-child: position %d out of range (node has %d children)" k nkids
    else if k = 1 then (p, p)
    else
      let kid = List.nth kids (k - 2) in
      (p, View.prev_used v (Sj.subtree_end v kid - 1))
  | Before s -> (
    match Sj.parent_of v s with
    | None -> fail "insert-before: target is the root"
    | Some parent -> (parent, View.prev_used v (s - 1)))
  | After s -> (
    match Sj.parent_of v s with
    | None -> fail "insert-after: target is the root"
    | Some parent -> (parent, View.prev_used v (Sj.subtree_end v s - 1)))

let insert v point nodes =
  if nodes = [] then ()
  else begin
    let parent, prev = resolve_point v point in
    assert (prev >= 0);
    let ancestors = ancestor_nodes v parent @ [ node_id_at v parent ] in
    let news = prepare_forest v ~parent_level:(View.level v parent) nodes in
    insert_after_prev v ~prev news;
    let m = Array.length news.from in
    Obs.inc m_inserts;
    Obs.add m_inserted_tuples m;
    List.iter (fun node -> View.add_size_delta v ~node m) ancestors;
    View.add_live v m
  end

let delete v ~pre =
  if not (View.is_used v pre) then fail "delete: pre %d is unused" pre;
  if View.level v pre = 0 then fail "delete: cannot remove the document root";
  let ancestors = ancestor_nodes v pre in
  let subtree = List.rev_append (Sj.descendants v [ pre ]) [ pre ] in
  let positions = List.map (View.pos_of_pre v) subtree in
  let touched = Hashtbl.create 8 in
  let bits = View.page_bits v in
  let mask = View.page_size v - 1 in
  List.iter
    (fun pos ->
      let page = View.private_page v (pos lsr bits) in
      let node = page.(c_node).(pos land mask) in
      View.attr_remove_node v ~node;
      View.free_node_id v node;
      blank page (pos land mask);
      costs.blanked_tuples <- costs.blanked_tuples + 1;
      Hashtbl.replace touched (pos lsr bits) page)
    positions;
  Hashtbl.iter (fun _ page -> Schema_up.recompute_free_runs page) touched;
  let m = List.length positions in
  Obs.inc m_deletes;
  Obs.add m_deleted_tuples m;
  List.iter (fun node -> View.add_size_delta v ~node (-m)) ancestors;
  View.add_live v (-m)

(* ------------------------------------------------------------ value updates *)

let set_text v ~pre s =
  let pos = View.pos_of_pre v pre in
  match View.kind v pre with
  | Kind.Text -> View.write_cell v Cname pos (View.push_text v s)
  | Kind.Comment -> View.write_cell v Cname pos (View.push_comment v s)
  | Kind.Pi ->
    let target = View.pi_target v pre in
    View.write_cell v Cname pos (View.push_pi v ~target ~data:s)
  | Kind.Element -> fail "set_text: pre %d is an element" pre

let rename_element v ~pre q =
  require_element v pre "rename_element";
  View.write_cell v Cname (View.pos_of_pre v pre) (View.intern_qn v q)

let set_attribute v ~pre q value =
  require_element v pre "set_attribute";
  let node = node_id_at v pre in
  let qn = View.intern_qn v q in
  let _ = View.attr_remove_named v ~node ~qn in
  View.attr_add v ~node ~qn ~prop:(View.intern_prop v value)

let remove_attribute v ~pre q =
  require_element v pre "remove_attribute";
  match View.qn_id v q with
  | None -> false
  | Some qn -> View.attr_remove_named v ~node:(node_id_at v pre) ~qn
