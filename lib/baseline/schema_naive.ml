open Column

type t = {
  pre : Varray.t; (* materialised: always equals the index, but must be
                     physically rewritten on every shift — the O(N) cost *)
  size : Varray.t;
  level : Varray.t;
  kind : Varray.t;
  name : Varray.t;
  qn : Dict.t;
  props : Dict.t;
  text_pool : Strpool.t;
  comment_pool : Strpool.t;
  pi_target_pool : Strpool.t;
  pi_data_pool : Strpool.t;
  attr_owner : Varray.t; (* sorted by owner pre *)
  attr_qn : Varray.t;
  attr_prop : Varray.t;
  mutable shifted : int;
}

let of_dom d =
  let items = Core.Shred.sequence d in
  let n = Array.length items in
  let t =
    { pre = Varray.create ~capacity:n ();
      size = Varray.create ~capacity:n ();
      level = Varray.create ~capacity:n ();
      kind = Varray.create ~capacity:n ();
      name = Varray.create ~capacity:n ();
      qn = Dict.create ();
      props = Dict.create ();
      text_pool = Strpool.create ();
      comment_pool = Strpool.create ();
      pi_target_pool = Strpool.create ();
      pi_data_pool = Strpool.create ();
      attr_owner = Varray.create ();
      attr_qn = Varray.create ();
      attr_prop = Varray.create ();
      shifted = 0 }
  in
  Array.iteri
    (fun pre { Core.Shred.size; level; payload } ->
      let kind, name =
        match payload with
        | Core.Shred.El (q, attrs) ->
          let qid = Dict.intern t.qn (Xml.Qname.to_string q) in
          List.iter
            (fun (aq, av) ->
              let _ = Varray.push t.attr_owner pre in
              let _ = Varray.push t.attr_qn (Dict.intern t.qn (Xml.Qname.to_string aq)) in
              let _ = Varray.push t.attr_prop (Dict.intern t.props av) in
              ())
            attrs;
          (Core.Kind.Element, qid)
        | Core.Shred.Tx s -> (Core.Kind.Text, Strpool.push t.text_pool s)
        | Core.Shred.Cm s -> (Core.Kind.Comment, Strpool.push t.comment_pool s)
        | Core.Shred.Pr (target, data) ->
          let r = Strpool.push t.pi_target_pool target in
          let _ = Strpool.push t.pi_data_pool data in
          (Core.Kind.Pi, r)
      in
      let _ = Varray.push t.pre pre in
      let _ = Varray.push t.size size in
      let _ = Varray.push t.level level in
      let _ = Varray.push t.kind (Core.Kind.to_int kind) in
      let _ = Varray.push t.name name in
      ())
    items;
  t

(* ------------------------------------------------------------- signature -- *)

let extent t = Varray.length t.size

let node_count = extent

let is_used _ _ = true

let next_used _ pre = pre

let prev_used _ pre = pre

let size t pre = Varray.get t.size pre

let level t pre = Varray.get t.level pre

let kind t pre = Core.Kind.of_int (Varray.get t.kind pre)

let name_id t pre = Varray.get t.name pre

let qname t pre =
  match kind t pre with
  | Core.Kind.Element -> Xml.Qname.of_string (Dict.to_string t.qn (name_id t pre))
  | _ -> invalid_arg "Schema_naive.qname: not an element"

let content t pre =
  let r = name_id t pre in
  match kind t pre with
  | Core.Kind.Text -> Strpool.get t.text_pool r
  | Core.Kind.Comment -> Strpool.get t.comment_pool r
  | Core.Kind.Pi -> Strpool.get t.pi_data_pool r
  | Core.Kind.Element -> invalid_arg "Schema_naive.content: element node"

let pi_target t pre =
  match kind t pre with
  | Core.Kind.Pi -> Strpool.get t.pi_target_pool (name_id t pre)
  | _ -> invalid_arg "Schema_naive.pi_target: not a PI"

let qn_id t q = Dict.find_opt t.qn (Xml.Qname.to_string q)

let attr_range t pre =
  let n = Varray.length t.attr_owner in
  let rec lower lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Varray.get t.attr_owner mid < pre then lower (mid + 1) hi else lower lo mid
  in
  let start = lower 0 n in
  let stop = ref start in
  while !stop < n && Varray.get t.attr_owner !stop = pre do
    incr stop
  done;
  (start, !stop)

let attributes t pre =
  let start, stop = attr_range t pre in
  List.init (stop - start) (fun i ->
      let row = start + i in
      ( Xml.Qname.of_string (Dict.to_string t.qn (Varray.get t.attr_qn row)),
        Dict.to_string t.props (Varray.get t.attr_prop row) ))

let attribute_id t pre qid =
  let start, stop = attr_range t pre in
  let rec scan row =
    if row >= stop then None
    else if Varray.get t.attr_qn row = qid then
      Some (Dict.to_string t.props (Varray.get t.attr_prop row))
    else scan (row + 1)
  in
  scan start

let attribute t pre q = Option.bind (qn_id t q) (attribute_id t pre)

let root_pre _ = 0

(* The table is the pre view: one run. *)
let fold_runs t ~lo ~hi ~init f =
  let lo = max lo 0 and hi = min hi (extent t) in
  if lo >= hi then init
  else
    f init
      { Core.Storage_intf.level = Varray.unsafe_data t.level;
        size = Varray.unsafe_data t.size;
        kind = Varray.unsafe_data t.kind;
        name = Varray.unsafe_data t.name;
        phys = lo;
        pre = lo;
        len = hi - lo }

let last_shifted t = t.shifted

(* --------------------------------------------------------------- updates -- *)

(* Open an m-slot hole at [at] in every node column: O(N - at) moves, plus a
   full rewrite of the materialised pre values after the hole. *)
let open_hole t ~at ~m =
  let n = extent t in
  let cols = [ t.pre; t.size; t.level; t.kind; t.name ] in
  List.iter
    (fun c ->
      Varray.push_n c m 0;
      if n - at > 0 then Varray.blit_within c ~src:at ~dst:(at + m) ~len:(n - at))
    cols;
  for i = at to n + m - 1 do
    Varray.set t.pre i i
  done;
  t.shifted <- t.shifted + (n - at)

let close_hole t ~at ~m =
  let n = extent t in
  let cols = [ t.pre; t.size; t.level; t.kind; t.name ] in
  List.iter
    (fun c ->
      if n - at - m > 0 then Varray.blit_within c ~src:(at + m) ~dst:at ~len:(n - at - m);
      Varray.truncate c (n - m))
    cols;
  for i = at to n - m - 1 do
    Varray.set t.pre i i
  done;
  t.shifted <- t.shifted + (n - at - m)

(* Rewrite attribute owner references at or past a boundary (B-tree key
   maintenance in a real RDBMS). *)
let shift_attr_owners t ~from ~by =
  Varray.iteri
    (fun row owner ->
      if owner >= from then begin
        Varray.set t.attr_owner row (owner + by);
        t.shifted <- t.shifted + 1
      end)
    t.attr_owner

(* Ancestors of a position: scan back over containment. *)
let bump_ancestor_sizes t ~pre ~by =
  let rec up j lvl =
    if j >= 0 && lvl > 0 then
      if Varray.get t.level j = lvl - 1 then begin
        Varray.set t.size j (Varray.get t.size j + by);
        up (j - 1) (lvl - 1)
      end
      else up (j - 1) lvl
  in
  let lvl = Varray.get t.level pre in
  up (pre - 1) lvl

let insert_attr_rows t rows =
  (* keep owner-sorted order: insert each row at its position *)
  List.iter
    (fun (owner, qn, prop) ->
      let at, _ = attr_range t (owner + 1) in
      let n = Varray.length t.attr_owner in
      let cols = [ t.attr_owner; t.attr_qn; t.attr_prop ] in
      List.iter
        (fun c ->
          Varray.push_n c 1 0;
          if n - at > 0 then Varray.blit_within c ~src:at ~dst:(at + 1) ~len:(n - at))
        cols;
      Varray.set t.attr_owner at owner;
      Varray.set t.attr_qn at qn;
      Varray.set t.attr_prop at prop;
      t.shifted <- t.shifted + (n - at))
    rows

let insert t ~parent_pre ~at_pre nodes =
  if nodes = [] then ()
  else begin
    t.shifted <- 0;
    let items = Core.Shred.sequence_forest nodes in
    let m = Array.length items in
    let plevel = Varray.get t.level parent_pre in
    (* ancestor sizes first (positions still valid), then the shift *)
    Varray.set t.size parent_pre (Varray.get t.size parent_pre + m);
    bump_ancestor_sizes t ~pre:parent_pre ~by:m;
    open_hole t ~at:at_pre ~m;
    shift_attr_owners t ~from:at_pre ~by:m;
    let attr_rows = ref [] in
    Array.iteri
      (fun i { Core.Shred.size; level; payload } ->
        let pre = at_pre + i in
        let kind, name =
          match payload with
          | Core.Shred.El (q, attrs) ->
            let qid = Dict.intern t.qn (Xml.Qname.to_string q) in
            List.iter
              (fun (aq, av) ->
                attr_rows :=
                  ( pre,
                    Dict.intern t.qn (Xml.Qname.to_string aq),
                    Dict.intern t.props av )
                  :: !attr_rows)
              attrs;
            (Core.Kind.Element, qid)
          | Core.Shred.Tx s -> (Core.Kind.Text, Strpool.push t.text_pool s)
          | Core.Shred.Cm s -> (Core.Kind.Comment, Strpool.push t.comment_pool s)
          | Core.Shred.Pr (target, data) ->
            let r = Strpool.push t.pi_target_pool target in
            let _ = Strpool.push t.pi_data_pool data in
            (Core.Kind.Pi, r)
        in
        Varray.set t.size (at_pre + i) size;
        Varray.set t.level (at_pre + i) (plevel + 1 + level);
        Varray.set t.kind (at_pre + i) (Core.Kind.to_int kind);
        Varray.set t.name (at_pre + i) name)
      items;
    insert_attr_rows t (List.rev !attr_rows)
  end

let delete t ~pre =
  if Varray.get t.level pre = 0 then invalid_arg "Schema_naive.delete: root";
  t.shifted <- 0;
  let m = 1 + Varray.get t.size pre in
  bump_ancestor_sizes t ~pre ~by:(-m);
  (* drop attr rows of the removed range, shift the rest *)
  let lo, _ = attr_range t pre in
  let hi, _ = attr_range t (pre + m) in
  let dropped = hi - lo in
  if dropped > 0 then begin
    let n = Varray.length t.attr_owner in
    let cols = [ t.attr_owner; t.attr_qn; t.attr_prop ] in
    List.iter
      (fun c ->
        if n - hi > 0 then Varray.blit_within c ~src:hi ~dst:lo ~len:(n - hi);
        Varray.truncate c (n - dropped))
      cols
  end;
  shift_attr_owners t ~from:pre ~by:(-m);
  close_hole t ~at:pre ~m
