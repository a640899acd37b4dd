module Imap = Map.Make (Int)
module Up = Core.Schema_up

type row = { rsize : int; rlevel : int; rkind : int; rname : int }

type t = {
  page_bits : int;
  slots : int;
  root : int;
  mutable rows : row Imap.t; (* keyed by materialised pos *)
  mutable log_to_phys : int Imap.t; (* the pageOffset *table* *)
  mutable node_of_pos : int Imap.t;
  mutable pos_of_node : int Imap.t;
  mutable attrs : (Xml.Qname.t * string) list Imap.t; (* by node id *)
  qn_ids : (string, int) Hashtbl.t;
  qn_names : (int, string) Hashtbl.t;
  texts : string Imap.t ref; (* by (kind, ref) — see [text_key] *)
  pi_targets : string Imap.t ref;
  mutable nlookups : int;
}

(* one string table keyed by kind*2^40 + ref, standing in for the text/com/
   ins side tables *)
let text_key kind r = (kind lsl 40) lor r

let of_dom ?page_bits ?fill d =
  (* Build the reference layout with the real shredder, then spill it into
     B-trees so both schemas hold byte-identical logical content. *)
  let up = Up.of_dom ?page_bits ?fill d in
  let t =
    { page_bits = Up.page_bits up;
      slots = Up.capacity up;
      root = Up.root_pre up;
      rows = Imap.empty;
      log_to_phys = Imap.empty;
      node_of_pos = Imap.empty;
      pos_of_node = Imap.empty;
      attrs = Imap.empty;
      qn_ids = Hashtbl.create 64;
      qn_names = Hashtbl.create 64;
      texts = ref Imap.empty;
      pi_targets = ref Imap.empty;
      nlookups = 0 }
  in
  let map = Up.pagemap up in
  for logical = 0 to Up.npages up - 1 do
    t.log_to_phys <-
      Imap.add logical (Column.Pagemap.phys_of_logical map logical) t.log_to_phys
  done;
  for pos = 0 to Up.capacity up - 1 do
    let level = Up.get_cell up Up.Clevel pos in
    let size = Up.get_cell up Up.Csize pos in
    let kind = Up.get_cell up Up.Ckind pos in
    let name = Up.get_cell up Up.Cname pos in
    t.rows <- Imap.add pos { rsize = size; rlevel = level; rkind = kind; rname = name } t.rows;
    if level <> Column.Varray.null then begin
      let node = Up.get_cell up Up.Cnode pos in
      t.node_of_pos <- Imap.add pos node t.node_of_pos;
      t.pos_of_node <- Imap.add node pos t.pos_of_node;
      let pre = Up.pre_of_pos up pos in
      (match Core.Kind.of_int kind with
      | Core.Kind.Element ->
        let qs = Xml.Qname.to_string (Up.qname up pre) in
        if not (Hashtbl.mem t.qn_ids qs) then begin
          Hashtbl.add t.qn_ids qs name;
          Hashtbl.add t.qn_names name qs
        end;
        let attrs = Up.attributes up pre in
        if attrs <> [] then begin
          t.attrs <- Imap.add node attrs t.attrs;
          List.iter
            (fun (q, _) ->
              let qs = Xml.Qname.to_string q in
              match Up.qn_id up q with
              | Some id when not (Hashtbl.mem t.qn_ids qs) ->
                Hashtbl.add t.qn_ids qs id;
                Hashtbl.add t.qn_names id qs
              | Some _ | None -> ())
            attrs
        end
      | Core.Kind.Text | Core.Kind.Comment ->
        t.texts := Imap.add (text_key kind name) (Up.content up pre) !(t.texts)
      | Core.Kind.Pi ->
        t.texts := Imap.add (text_key kind name) (Up.content up pre) !(t.texts);
        t.pi_targets := Imap.add name (Up.pi_target up pre) !(t.pi_targets))
    end
  done;
  t

let lookups t = t.nlookups

(* every data access is a B-tree descent, O(log N) *)
let find t m k =
  t.nlookups <- t.nlookups + 1;
  Imap.find k m

let pos_of_pre t pre =
  let mask = (1 lsl t.page_bits) - 1 in
  let phys = find t t.log_to_phys (pre lsr t.page_bits) in
  (phys lsl t.page_bits) lor (pre land mask)

let row t pre = find t t.rows (pos_of_pre t pre)

let extent t = t.slots

let next_used t pre =
  let stop = t.slots in
  let pre = ref pre in
  while
    !pre < stop
    &&
    let r = row t !pre in
    if r.rlevel = Column.Varray.null then begin
      pre := Core.Storage_intf.skip_free !pre r.rsize;
      true
    end
    else false
  do
    ()
  done;
  min !pre stop

let size t pre = (row t pre).rsize

let level t pre = (row t pre).rlevel

let kind t pre = Core.Kind.of_int (row t pre).rkind

let name_id t pre = (row t pre).rname

let qname t pre =
  match kind t pre with
  | Core.Kind.Element -> Xml.Qname.of_string (Hashtbl.find t.qn_names (name_id t pre))
  | _ -> invalid_arg "Schema_btree.qname: not an element"

let content t pre =
  let r = row t pre in
  match Core.Kind.of_int r.rkind with
  | Core.Kind.Element -> invalid_arg "Schema_btree.content: element node"
  | _ -> find t !(t.texts) (text_key r.rkind r.rname)

let pi_target t pre =
  match kind t pre with
  | Core.Kind.Pi -> find t !(t.pi_targets) (name_id t pre)
  | _ -> invalid_arg "Schema_btree.pi_target: not a PI"

let qn_id t q = Hashtbl.find_opt t.qn_ids (Xml.Qname.to_string q)

let node_at t pre = find t t.node_of_pos (pos_of_pre t pre)

let attributes t pre =
  match Imap.find_opt (node_at t pre) t.attrs with
  | Some l ->
    t.nlookups <- t.nlookups + 1;
    l
  | None -> []

let attribute t pre q =
  List.find_map
    (fun (q', v) -> if Xml.Qname.equal q q' then Some v else None)
    (attributes t pre)

let attribute_id t pre id =
  List.find_map
    (fun (q', v) -> if qn_id t q' = Some id then Some v else None)
    (attributes t pre)

let root_pre t = t.root

(* One run per logical page, filled row by row: every slot stays a B-tree
   descent, as the baseline's cost model requires. *)
let fold_runs t ~lo ~hi ~init f =
  Core.Storage_intf.fold_pages ~page_size:(1 lsl t.page_bits) ~lo
    ~hi:(min hi t.slots) ~init (fun acc first last ->
      let rows = Array.init (last - first) (fun i -> row t (first + i)) in
      let col g = Array.map g rows in
      f acc
        { Core.Storage_intf.level = col (fun r -> r.rlevel);
          size = col (fun r -> r.rsize);
          kind = col (fun r -> r.rkind);
          name = col (fun r -> r.rname);
          phys = 0;
          pre = first;
          len = last - first })
