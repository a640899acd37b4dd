open Column
module Ro = Core.Schema_ro

type t = {
  ro : Ro.t; (* the read-only schema's table, shifted in place *)
  pre : Varray.t; (* materialised: always equals the index, but must be
                     physically rewritten on every shift — the O(N) cost *)
  mutable shifted : int;
}

let of_dom d =
  let ro = Ro.of_dom d in
  { ro; pre = Varray.of_array (Array.init (Ro.extent ro) Fun.id); shifted = 0 }

(* ------------------------------------------------------------- signature -- *)

let extent t = Ro.extent t.ro

let next_used t pre = Ro.next_used t.ro pre

let size t pre = Ro.size t.ro pre

let level t pre = Ro.level t.ro pre

let kind t pre = Ro.kind t.ro pre

let name_id t pre = Ro.name_id t.ro pre

let qname t pre = Ro.qname t.ro pre

let content t pre = Ro.content t.ro pre

let pi_target t pre = Ro.pi_target t.ro pre

let qn_id t q = Ro.qn_id t.ro q

let attributes t pre = Ro.attributes t.ro pre

let attribute t pre q = Ro.attribute t.ro pre q

let attribute_id t pre qid = Ro.attribute_id t.ro pre qid

let root_pre t = Ro.root_pre t.ro

let fold_runs t ~lo ~hi ~init f = Ro.fold_runs t.ro ~lo ~hi ~init f

let last_shifted t = t.shifted

(* --------------------------------------------------------------- updates -- *)

let node_cols t = [ t.pre; t.ro.size; t.ro.level; t.ro.kind; t.ro.name ]

let attr_cols t = [ t.ro.attr_owner; t.ro.attr_qn; t.ro.attr_prop ]

(* Open an m-slot hole at [at] in every node column: O(N - at) moves, plus a
   full rewrite of the materialised pre values after the hole. *)
let open_hole t ~at ~m =
  let n = extent t in
  List.iter
    (fun c ->
      Varray.push_n c m 0;
      if n - at > 0 then Varray.blit_within c ~src:at ~dst:(at + m) ~len:(n - at))
    (node_cols t);
  for i = at to n + m - 1 do
    Varray.set t.pre i i
  done;
  t.shifted <- t.shifted + (n - at)

let close_hole t ~at ~m =
  let n = extent t in
  List.iter
    (fun c ->
      if n - at - m > 0 then Varray.blit_within c ~src:(at + m) ~dst:at ~len:(n - at - m);
      Varray.truncate c (n - m))
    (node_cols t);
  for i = at to n - m - 1 do
    Varray.set t.pre i i
  done;
  t.shifted <- t.shifted + (n - at - m)

(* Rewrite attribute owner references at or past a boundary (B-tree key
   maintenance in a real RDBMS). *)
let shift_attr_owners t ~from ~by =
  let owner_col = t.ro.attr_owner in
  Varray.iteri
    (fun row owner ->
      if owner >= from then begin
        Varray.set owner_col row (owner + by);
        t.shifted <- t.shifted + 1
      end)
    owner_col

(* Ancestors of a position: scan back over containment. *)
let bump_ancestor_sizes t ~pre ~by =
  let rec up j lvl =
    if j >= 0 && lvl > 0 then
      if level t j = lvl - 1 then begin
        Varray.set t.ro.size j (size t j + by);
        up (j - 1) (lvl - 1)
      end
      else up (j - 1) lvl
  in
  up (pre - 1) (level t pre)

let insert_attr_rows t rows =
  (* keep owner-sorted order: insert each row at its position *)
  List.iter
    (fun (owner, qn, prop) ->
      let at, _ = Ro.attr_range t.ro (owner + 1) in
      let n = Varray.length t.ro.attr_owner in
      List.iter2
        (fun c x ->
          Varray.push_n c 1 0;
          if n - at > 0 then Varray.blit_within c ~src:at ~dst:(at + 1) ~len:(n - at);
          Varray.set c at x)
        (attr_cols t) [ owner; qn; prop ];
      t.shifted <- t.shifted + (n - at))
    rows

let insert t ~parent_pre ~at_pre nodes =
  if nodes = [] then ()
  else begin
    t.shifted <- 0;
    let items = Core.Shred.sequence_forest nodes in
    let m = Array.length items in
    let plevel = level t parent_pre in
    (* ancestor sizes first (positions still valid), then the shift *)
    Varray.set t.ro.size parent_pre (size t parent_pre + m);
    bump_ancestor_sizes t ~pre:parent_pre ~by:m;
    open_hole t ~at:at_pre ~m;
    shift_attr_owners t ~from:at_pre ~by:m;
    let attr_rows = ref [] in
    Array.iteri
      (fun i { Core.Shred.size; level; payload } ->
        let pre = at_pre + i in
        let kind, name =
          Ro.encode t.ro payload ~attr:(fun ~qn ~prop ->
              attr_rows := (pre, qn, prop) :: !attr_rows)
        in
        Varray.set t.ro.size pre size;
        Varray.set t.ro.level pre (plevel + 1 + level);
        Varray.set t.ro.kind pre (Core.Kind.to_int kind);
        Varray.set t.ro.name pre name)
      items;
    insert_attr_rows t (List.rev !attr_rows)
  end

let delete t ~pre =
  if level t pre = 0 then invalid_arg "Schema_naive.delete: root";
  t.shifted <- 0;
  let m = 1 + size t pre in
  bump_ancestor_sizes t ~pre ~by:(-m);
  (* drop attr rows of the removed range, shift the rest *)
  let lo, _ = Ro.attr_range t.ro pre in
  let hi, _ = Ro.attr_range t.ro (pre + m) in
  let dropped = hi - lo in
  if dropped > 0 then begin
    let n = Varray.length t.ro.attr_owner in
    List.iter
      (fun c ->
        if n - hi > 0 then Varray.blit_within c ~src:hi ~dst:lo ~len:(n - hi);
        Varray.truncate c (n - dropped))
      (attr_cols t)
  end;
  shift_attr_owners t ~from:pre ~by:(-m);
  close_hole t ~at:pre ~m
