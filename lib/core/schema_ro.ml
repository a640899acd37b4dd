open Column

type t = {
  size : Varray.t;
  level : Varray.t;
  kind : Varray.t;
  name : Varray.t; (* qn id for elements; pool ref for text/comment/pi *)
  values : Values.t;
  (* attr table, owner-sorted because shredding emits in document order *)
  attr_owner : Varray.t;
  attr_qn : Varray.t;
  attr_prop : Varray.t;
}

let of_dom d =
  let items = Shred.sequence d in
  let n = Array.length items in
  let t =
    { size = Varray.create ~capacity:n ();
      level = Varray.create ~capacity:n ();
      kind = Varray.create ~capacity:n ();
      name = Varray.create ~capacity:n ();
      values = Values.create ();
      attr_owner = Varray.create ();
      attr_qn = Varray.create ();
      attr_prop = Varray.create () }
  in
  Array.iteri
    (fun pre { Shred.size; level; payload } ->
      let kind, name =
        Values.encode t.values payload ~attr:(fun ~qn ~prop ->
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

let qname t pre = Values.qname t.values (kind t pre) (name_id t pre)

let content t pre = Values.content t.values (kind t pre) (name_id t pre)

let pi_target t pre = Values.pi_target t.values (kind t pre) (name_id t pre)

let qn_id t q = Values.qn_id_unlocked t.values q

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
      Values.attribute t.values ~qn:(Varray.get t.attr_qn row)
        ~prop:(Varray.get t.attr_prop row))

let attribute_id t pre qid =
  let start, stop = attr_range t pre in
  let rec scan row =
    if row >= stop then None
    else if Varray.get t.attr_qn row = qid then
      Some (Values.get t.values Values.Dprop (Varray.get t.attr_prop row))
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

let attr_count t = Varray.length t.attr_owner

let stats t =
  let slots = extent t in
  { Storage_intf.slots;
    nodes = slots;
    attrs = attr_count t;
    distinct_qnames = Values.length t.values Values.Dqn;
    distinct_props = Values.length t.values Values.Dprop;
    approx_bytes =
      (4 * slots * 8) (* size, level, kind, name *)
      + (3 * attr_count t * 8)
      + Values.approx_bytes t.values }
