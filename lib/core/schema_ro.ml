open Column

type t = {
  size : Varray.t;
  level : Varray.t;
  kind : Varray.t;
  name : Varray.t; (* qn id for elements; pool ref for text/comment/pi *)
  qn : Dict.t;
  props : Dict.t;
  text_pool : Strpool.t;
  comment_pool : Strpool.t;
  pi_target_pool : Strpool.t;
  pi_data_pool : Strpool.t;
  (* attr table, owner-sorted because shredding emits in document order *)
  attr_owner : Varray.t;
  attr_qn : Varray.t;
  attr_prop : Varray.t;
}

let encode t payload ~attr =
  match payload with
  | Shred.El (q, attrs) ->
    let qid = Dict.intern t.qn (Xml.Qname.to_string q) in
    List.iter
      (fun (aq, av) ->
        let qn = Dict.intern t.qn (Xml.Qname.to_string aq) in
        attr ~qn ~prop:(Dict.intern t.props av))
      attrs;
    (Kind.Element, qid)
  | Shred.Tx s -> (Kind.Text, Strpool.push t.text_pool s)
  | Shred.Cm s -> (Kind.Comment, Strpool.push t.comment_pool s)
  | Shred.Pr (target, data) ->
    let r = Strpool.push t.pi_target_pool target in
    let _ = Strpool.push t.pi_data_pool data in
    (Kind.Pi, r)

let of_dom d =
  let items = Shred.sequence d in
  let n = Array.length items in
  let t =
    { size = Varray.create ~capacity:n ();
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
      attr_prop = Varray.create () }
  in
  Array.iteri
    (fun pre { Shred.size; level; payload } ->
      let kind, name =
        encode t payload ~attr:(fun ~qn ~prop ->
            let _ = Varray.push t.attr_owner pre in
            let _ = Varray.push t.attr_qn qn in
            let _ = Varray.push t.attr_prop prop in
            ())
      in
      let _ = Varray.push t.size size in
      let _ = Varray.push t.level level in
      let _ = Varray.push t.kind (Kind.to_int kind) in
      let _ = Varray.push t.name name in
      ())
    items;
  t

let extent t = Varray.length t.size

let next_used _t pre = pre

let size t pre = Varray.get t.size pre

let level t pre = Varray.get t.level pre

let kind t pre = Kind.of_int (Varray.get t.kind pre)

let name_id t pre = Varray.get t.name pre

let qname t pre =
  match kind t pre with
  | Kind.Element -> Xml.Qname.of_string (Dict.to_string t.qn (name_id t pre))
  | Kind.Text | Kind.Comment | Kind.Pi ->
    invalid_arg "Schema_ro.qname: not an element"

let content t pre =
  let r = name_id t pre in
  match kind t pre with
  | Kind.Text -> Strpool.get t.text_pool r
  | Kind.Comment -> Strpool.get t.comment_pool r
  | Kind.Pi -> Strpool.get t.pi_data_pool r
  | Kind.Element -> invalid_arg "Schema_ro.content: element node"

let pi_target t pre =
  match kind t pre with
  | Kind.Pi -> Strpool.get t.pi_target_pool (name_id t pre)
  | Kind.Element | Kind.Text | Kind.Comment ->
    invalid_arg "Schema_ro.pi_target: not a PI"

let qn_id t q = Dict.find_opt t.qn (Xml.Qname.to_string q)

(* Attribute rows of [pre] form a contiguous owner-sorted range; binary-search
   its start. *)
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

let root_pre _t = 0

(* The table is the pre view: one run. *)
let fold_runs t ~lo ~hi ~init f =
  let lo = max lo 0 and hi = min hi (extent t) in
  if lo >= hi then init
  else
    f init
      { Storage_intf.level = Varray.unsafe_data t.level;
        size = Varray.unsafe_data t.size;
        kind = Varray.unsafe_data t.kind;
        name = Varray.unsafe_data t.name;
        phys = lo;
        pre = lo;
        len = hi - lo }

type stats = {
  slots : int;
  nodes : int;
  attrs : int;
  distinct_qnames : int;
  distinct_props : int;
  approx_bytes : int;
}

let attr_count t = Varray.length t.attr_owner

let stats t =
  let slots = extent t in
  let pool_bytes p =
    let b = ref 0 in
    Strpool.iteri (fun _ s -> b := !b + String.length s + 8) p;
    !b
  in
  let dict_bytes d =
    let b = ref 0 in
    Dict.iteri (fun _ s -> b := !b + String.length s + 16) d;
    !b
  in
  { slots;
    nodes = slots;
    attrs = attr_count t;
    distinct_qnames = Dict.cardinal t.qn;
    distinct_props = Dict.cardinal t.props;
    approx_bytes =
      (4 * slots * 8) (* size, level, kind, name *)
      + (3 * attr_count t * 8)
      + dict_bytes t.qn + dict_bytes t.props
      + pool_bytes t.text_pool + pool_bytes t.comment_pool
      + pool_bytes t.pi_target_pool + pool_bytes t.pi_data_pool }
