open Column

type anchor = Start | After_phys of int

type splice = { anchor : anchor; pages : int list }

type staged = {
  base_npages : int;
  pages : (int, int array array) Hashtbl.t;
  mutable fresh_pages : int;
  mutable pmap : Pagemap.t;
  mutable splices : splice list;
  node_pos_w : (int, int) Hashtbl.t;
  size_deltas : (int, int) Hashtbl.t;
  mutable attr_adds : (int * int * int) array;
  mutable attr_adds_len : int;
  mutable attr_dels : int list;
  mutable pool_log : (Values.pool * int * string) list;
  mutable fresh_nodes : int list;
  mutable freed_nodes : int list;
  mutable live_delta : int;
  base_attr_len : int;
}

exception Conflict of { page : int; stamp : int; snapshot : int }

(* A pinned MVCC snapshot, with what its reads need cached once per pin:
   the frozen pageOffset's l2p array (as immutable as the version) and the
   base column arrays, which stay the version's state only while
   [Version.is_current] holds. *)
type snap = {
  vs : Version.t;
  bits : int;
  mask : int;  (* page size - 1 *)
  l2p : int array;
  size_a : int array;
  level_a : int array;
  kind_a : int array;
  name_a : int array;
  node_a : int array;
}

(* A staged view reads its pinned snapshot under its private pages. *)
type flavour = Snapshot of snap | Staged of snap * staged

type t = { b : Schema_up.t; fl : flavour }

let m_overtaken =
  Obs.counter
    ~help:
      "snapshot reads a commit or vacuum overtook (resolved through the \
       version chain)"
    "mvcc.overtaken_reads"

let m_overtaken_runs =
  Obs.counter
    ~help:
      "snapshot runs a commit or vacuum overtook (read again through the \
       version chain)"
    "mvcc.overtaken_runs"

let snap vs =
  let b = Version.base vs in
  let col c = Schema_up.column_data b c in
  { vs;
    bits = Schema_up.page_bits b;
    mask = Schema_up.page_size b - 1;
    l2p = Pagemap.unsafe_l2p (Version.pmap vs);
    size_a = col Csize;
    level_a = col Clevel;
    kind_a = col Ckind;
    name_a = col Cname;
    node_a = col Cnode }

let snapshot vs = { b = Version.base vs; fl = Snapshot (snap vs) }

(* The one write path: every mutation lands in a transaction's staged
   state. Snapshot views are read-only. *)
let writable v what =
  match v.fl with
  | Staged (s, st) -> (s, st)
  | Snapshot _ -> invalid_arg ("View." ^ what ^ ": only staged views are writable")

let staged_exn v what = snd (writable v what)

let staged vs =
  let st =
    { base_npages = Version.npages vs;
      pages = Hashtbl.create 16;
      fresh_pages = 0;
      pmap = Pagemap.copy (Version.pmap vs);
      splices = [];
      node_pos_w = Hashtbl.create 16;
      size_deltas = Hashtbl.create 8;
      attr_adds = [||];
      attr_adds_len = 0;
      attr_dels = [];
      pool_log = [];
      fresh_nodes = [];
      freed_nodes = [];
      live_delta = 0;
      (* Pseudo row ids for staged adds start past every row the snapshot
         can see. *)
      base_attr_len = Version.attr_hwm vs }
  in
  { b = Version.base vs; fl = Staged (snap vs, st) }

let staged_state v =
  match v.fl with Staged (_, st) -> Some st | Snapshot _ -> None

let snapshot_version v =
  match v.fl with Snapshot s -> Some s.vs | Staged _ -> None

(* ------------------------------------------------------------- geometry -- *)

let page_bits v = Schema_up.page_bits v.b

let page_size v = Schema_up.page_size v.b

let npages v =
  match v.fl with
  | Snapshot s -> Version.npages s.vs
  | Staged (_, st) -> st.base_npages + st.fresh_pages

let capacity v = npages v lsl page_bits v

(* ----------------------------------------------------------- cell access -- *)

let[@inline] snap_col s : Schema_up.col -> int array = function
  | Csize -> s.size_a
  | Clevel -> s.level_a
  | Ckind -> s.kind_a
  | Cname -> s.name_a
  | Cnode -> s.node_a

let snap_pos s pre = (s.l2p.(pre lsr s.bits) lsl s.bits) lor (pre land s.mask)

(* A snapshot read a commit or vacuum overtook, redone through the version
   chain inside the store seqlock. Only a writer's pin survives a vacuum,
   which leaves no chain to walk: the read conflicts. *)
let in_seqlock s f =
  Version.stable s.vs (fun () ->
      let lsn = Version.vacuumed s.vs in
      if lsn > 0 then
        raise (Conflict { page = -1; stamp = lsn; snapshot = Version.epoch s.vs });
      f ())

let overtaken s f =
  Obs.inc m_overtaken;
  in_seqlock s f

(* The first chain overlay capturing a page has its content as of the
   pinned epoch; otherwise no commit since has touched it and the base still
   does. *)
let overtaken_cell v s col pos =
  overtaken s (fun () ->
      match Version.find_page s.vs (pos lsr s.bits) with
      | Some arrays -> arrays.(Schema_up.col_index col).(pos land s.mask)
      | None -> Schema_up.get_cell v.b col pos)

(* The fast path: while no commit has begun since the pinned version was
   installed, the base holds exactly its state — read the cached array
   [a] (column [col]), then validate. A stale cached array can only be read
   when the check already fails. *)
let[@inline] snap_cell v s a col pos =
  let x = a.(pos) in
  if Version.is_current s.vs then x else overtaken_cell v s col pos

(* Staged pages missing from [st.pages] are snapshot pages, unchanged by the
   transaction; only pages that existed when the view began qualify. *)
let check_base st phys what =
  if phys >= st.base_npages then
    invalid_arg (Printf.sprintf "View.%s: page %d beyond staged pages" what phys)

let read_cell v col pos =
  match v.fl with
  | Snapshot s -> snap_cell v s (snap_col s col) col pos
  | Staged (s, st) -> (
    let phys = pos lsr s.bits in
    match Hashtbl.find_opt st.pages phys with
    | Some page -> page.(Schema_up.col_index col).(pos land s.mask)
    | None ->
      check_base st phys "read_cell";
      snap_cell v s (snap_col s col) col pos)

(* The snapshot's image of page [phys], as a fresh copy. The cached column
   arrays never shrink, so the fast path's slices stay in bounds. *)
let snap_page v s phys =
  let page =
    Array.init 5 (fun ci ->
        Array.sub (snap_col s (Schema_up.col_of_index ci)) (phys lsl s.bits) (s.mask + 1))
  in
  if Version.is_current s.vs then page
  else
    overtaken s (fun () ->
        match Version.find_page s.vs phys with
        | Some arrays -> Array.map Array.copy arrays
        | None -> Schema_up.capture_page v.b phys)

(* Copy-on-write: the first write that changes a base page copies the
   snapshot's image of it, and every later read and write of the page uses
   the copy. A page a newer commit rewrote ([Bulk] stamp) conflicts at once,
   as its commit would; a newer size delta ([Delta] stamp) does not, since
   the commit re-derives every pre-existing node's size from the base.
   [unchanged] decides that the write would change nothing and needs no
   copy. *)
let copy_base v s st phys ~unchanged =
  check_base st phys "private_page";
  let snapshot = Version.epoch s.vs in
  let stamp = Schema_up.page_stamp v.b Bulk phys in
  if stamp > snapshot then raise (Conflict { page = phys; stamp; snapshot });
  if unchanged () then None
  else begin
    let page = snap_page v s phys in
    Hashtbl.replace st.pages phys page;
    Some page
  end

let private_page v phys =
  let s, st = writable v "private_page" in
  match Hashtbl.find_opt st.pages phys with
  | Some page -> page
  | None -> Option.get (copy_base v s st phys ~unchanged:(fun () -> false))

let write_cell v col pos x =
  let s, st = writable v "write_cell" in
  let phys = pos lsr s.bits in
  let ci = Schema_up.col_index col and off = pos land s.mask in
  match Hashtbl.find_opt st.pages phys with
  | Some page -> page.(ci).(off) <- x
  | None -> (
    match copy_base v s st phys ~unchanged:(fun () -> read_cell v col pos = x) with
    | None -> () (* rewrites the snapshot's value: nothing to copy *)
    | Some page -> page.(ci).(off) <- x)

let pos_of_pre v pre =
  match v.fl with
  | Snapshot s -> snap_pos s pre
  | Staged (_, st) -> Pagemap.pre_to_pos st.pmap pre

let pre_of_pos v pos =
  match v.fl with
  | Snapshot s -> Pagemap.pos_to_pre (Version.pmap s.vs) pos
  | Staged (_, st) -> Pagemap.pos_to_pre st.pmap pos

(* Fresh pages join the private page table under their provisional ids. *)
let splice_pages v ~at_logical ~count =
  let st = staged_exn v "splice_pages" in
  let anchor =
    if at_logical = 0 then Start
    else After_phys (Pagemap.phys_of_logical st.pmap (at_logical - 1))
  in
  let fresh = Pagemap.splice st.pmap ~at:at_logical ~count in
  List.iter
    (fun phys ->
      assert (phys = st.base_npages + st.fresh_pages);
      Hashtbl.replace st.pages phys (Schema_up.blank_page (page_size v));
      st.fresh_pages <- st.fresh_pages + 1)
    fresh;
  st.splices <- { anchor; pages = fresh } :: st.splices;
  fresh

(* ---------------------------------------------------------- node identity -- *)

let snap_node_pos v s id =
  if id >= Version.node_hwm s.vs then Varray.null
  else
    let pos = Schema_up.node_pos_get v.b id in
    if Version.is_current s.vs then pos
    else overtaken s (fun () -> Version.node_pos s.vs id)

let node_pos_get v id =
  match v.fl with
  | Snapshot s -> snap_node_pos v s id
  | Staged (s, st) -> (
    match Hashtbl.find_opt st.node_pos_w id with
    | Some pos -> pos
    | None -> snap_node_pos v s id)

let node_pos_set v id pos =
  Hashtbl.replace (staged_exn v "node_pos_set").node_pos_w id pos

let fresh_node_id v =
  let st = staged_exn v "fresh_node_id" in
  let id = Schema_up.fresh_node_id v.b in
  st.fresh_nodes <- id :: st.fresh_nodes;
  id

let free_node_id v id =
  let st = staged_exn v "free_node_id" in
  (* Own reads must see the node as gone; the id returns to the shared
     allocator only at commit. *)
  Hashtbl.replace st.node_pos_w id Varray.null;
  st.freed_nodes <- id :: st.freed_nodes

let add_size_delta v ~node delta =
  let st = staged_exn v "add_size_delta" in
  let cur = Option.value ~default:0 (Hashtbl.find_opt st.size_deltas node) in
  Hashtbl.replace st.size_deltas node (cur + delta)

let add_live v d =
  let st = staged_exn v "add_live" in
  st.live_delta <- st.live_delta + d

(* ----------------------------------------------------------------- values -- *)

let values v = Schema_up.values v.b

(* Appends go straight to the shared base (append-only, invisible until a
   commit references them) and are logged for the WAL. *)
let log_pool st pool id s = st.pool_log <- (pool, id, s) :: st.pool_log

let encode v payload ~attr =
  let st = staged_exn v "encode" in
  Values.encode (values v) ~log:(log_pool st) payload ~attr

let intern v pool s =
  let st = staged_exn v "intern" in
  let id = Values.intern (values v) pool s in
  log_pool st pool id s;
  id

(* -------------------------------------------------------------- attributes -- *)

let attr_add v ~node ~qn ~prop =
  let st = staged_exn v "attr_add" in
  if st.attr_adds_len >= Array.length st.attr_adds then begin
    let a = Array.make (max 8 (2 * (st.attr_adds_len + 1))) (0, 0, 0) in
    Array.blit st.attr_adds 0 a 0 st.attr_adds_len;
    st.attr_adds <- a
  end;
  st.attr_adds.(st.attr_adds_len) <- (node, qn, prop);
  st.attr_adds_len <- st.attr_adds_len + 1

(* Live attribute rows of a node through the view: (row-id, qn, prop).
   Staged adds get pseudo ids past the snapshot boundary. *)
let snap_attr_entries s node =
  let rows = Version.base_attr_entries s.vs node in
  if Version.is_current s.vs then rows
  else overtaken s (fun () -> Version.attr_entries s.vs node)

let attr_entries v node =
  match v.fl with
  | Snapshot s -> snap_attr_entries s node
  | Staged (s, st) ->
    let from_base =
      List.filter
        (fun (row, _, _) -> not (List.mem row st.attr_dels))
        (snap_attr_entries s node)
    in
    let from_staged = ref [] in
    for i = st.attr_adds_len - 1 downto 0 do
      let n, qn, prop = st.attr_adds.(i) in
      if n = node then from_staged := (st.base_attr_len + i, qn, prop) :: !from_staged
    done;
    from_base @ !from_staged

let attr_remove_row st row =
  if row >= st.base_attr_len then begin
    let i = row - st.base_attr_len in
    let _, qn, prop = st.attr_adds.(i) in
    st.attr_adds.(i) <- (Varray.null, qn, prop)
  end
  else st.attr_dels <- row :: st.attr_dels

let attr_remove_node v ~node =
  let st = staged_exn v "attr_remove_node" in
  List.iter (fun (row, _, _) -> attr_remove_row st row) (attr_entries v node)

let attr_remove_named v ~node ~qn =
  let st = staged_exn v "attr_remove_named" in
  match List.find_opt (fun (_, q, _) -> q = qn) (attr_entries v node) with
  | None -> false
  | Some (row, _, _) ->
    attr_remove_row st row;
    true

(* The pages a commit must find unchanged since the snapshot: the base pages
   the transaction copied, and the owner page of every staged attribute
   change, which that commit bulk-stamps. *)
let write_set v =
  let s, st = writable v "write_set" in
  let pages = Hashtbl.create 8 in
  let add phys = if phys < st.base_npages then Hashtbl.replace pages phys () in
  Hashtbl.iter (fun phys _ -> add phys) st.pages;
  let owner node =
    let pos = node_pos_get v node in
    if pos <> Varray.null then add (pos lsr s.bits)
  in
  for i = 0 to st.attr_adds_len - 1 do
    let node, _, _ = st.attr_adds.(i) in
    if node <> Varray.null then owner node
  done;
  List.iter
    (fun row ->
      let r = Schema_up.attr_row v.b row in
      let node, _, _ =
        if Version.is_current s.vs then r
        else overtaken s (fun () -> Version.attr_row s.vs row)
      in
      owner node)
    st.attr_dels;
  List.of_seq (Hashtbl.to_seq_keys pages)

(* -------------------------------------------------- the storage signature -- *)

let extent = capacity

let node_count v =
  match v.fl with
  | Snapshot s -> Version.live s.vs
  | Staged (s, st) -> Version.live s.vs + st.live_delta

(* A cell by pre: snapshots read the cached arrays directly. *)
let[@inline] cell v col pre =
  match v.fl with
  | Snapshot s -> snap_cell v s (snap_col s col) col (snap_pos s pre)
  | Staged _ -> read_cell v col (pos_of_pre v pre)

let is_used v pre = cell v Clevel pre <> Varray.null

let next_used_cells v pre =
  let stop = extent v in
  let pre = ref pre in
  while
    !pre < stop
    &&
    let pos = pos_of_pre v !pre in
    if read_cell v Clevel pos = Varray.null then begin
      pre := Storage_intf.skip_free !pre (read_cell v Csize pos);
      true
    end
    else false
  do
    ()
  done;
  min !pre stop

let next_used_overtaken v pre =
  Obs.inc m_overtaken;
  next_used_cells v pre

(* The staircase join's skip primitive: on a snapshot, the whole hop runs
   on the cached arrays and is validated once. Whatever a racing commit
   makes it read, [p] strictly grows or the hop raises, so the loop ends; a
   hop a commit overtook, or a raise from one (a torn read), is then redone
   read by read, as [snap_run] does. *)
let next_used v pre =
  match v.fl with
  | Staged _ -> next_used_cells v pre
  | Snapshot s -> (
    let stop = Version.npages s.vs lsl s.bits in
    match
      let p = ref pre in
      while
        !p < stop
        &&
        let pos = snap_pos s !p in
        s.level_a.(pos) = Varray.null
        && begin
             p := Storage_intf.skip_free !p s.size_a.(pos);
             true
           end
      do
        ()
      done;
      min !p stop
    with
    | p -> if Version.is_current s.vs then p else next_used_overtaken v pre
    | exception e ->
      if Version.is_current s.vs then raise e else next_used_overtaken v pre)

let prev_used v pre =
  let mask = page_size v - 1 in
  let pre = ref (min pre (extent v - 1)) in
  let continue = ref true in
  while !pre >= 0 && !continue do
    if read_cell v Clevel (pos_of_pre v !pre) <> Varray.null then continue := false
    else begin
      let page_first = !pre land lnot mask in
      let first_pos = pos_of_pre v page_first in
      if
        read_cell v Clevel first_pos = Varray.null
        && page_first + read_cell v Csize first_pos >= !pre
      then pre := page_first - 1
      else decr pre
    end
  done;
  if !pre < 0 then -1 else !pre

let size v pre =
  match v.fl with
  | Snapshot _ -> cell v Csize pre
  | Staged (_, st) ->
    let pos = pos_of_pre v pre in
    let s = read_cell v Csize pos in
    if Hashtbl.length st.size_deltas = 0 || read_cell v Clevel pos = Varray.null
    then s
    else
      s
      + Option.value ~default:0
          (Hashtbl.find_opt st.size_deltas (read_cell v Cnode pos))

let level v pre = cell v Clevel pre

let kind v pre = Kind.of_int (cell v Ckind pre)

let name_id v pre = cell v Cname pre

let qname v pre = Values.qname (values v) (kind v pre) (name_id v pre)

let content v pre = Values.content (values v) (kind v pre) (name_id v pre)

let pi_target v pre = Values.pi_target (values v) (kind v pre) (name_id v pre)

let qn_id v q = Values.qn_id (values v) q

let node_at_pre v pre =
  let pos = pos_of_pre v pre in
  if read_cell v Clevel pos = Varray.null then invalid_arg "View: unused slot";
  read_cell v Cnode pos

let attributes v pre =
  let node = node_at_pre v pre in
  List.map
    (fun (_, qn, prop) -> Values.attribute (values v) ~qn ~prop)
    (attr_entries v node)

(* A current snapshot probes the base's index for a row it can see, then
   validates; an overtaken snapshot and a staged view scan their entries. *)
let attribute_id v pre qid =
  let prop_value prop = Some (Values.get (values v) Values.Dprop prop) in
  let rec scan = function
    | [] -> None
    | (_, qn, prop) :: rest -> if qn = qid then prop_value prop else scan rest
  in
  let node = node_at_pre v pre in
  match v.fl with
  | Snapshot s ->
    let prop = Schema_up.attr_prop_below v.b node ~below:(Version.attr_hwm s.vs) qid in
    if not (Version.is_current s.vs) then
      scan (overtaken s (fun () -> Version.attr_entries s.vs node))
    else if prop = Varray.null then None
    else prop_value prop
  | Staged _ -> scan (attr_entries v node)

let attribute v pre q = Option.bind (qn_id v q) (attribute_id v pre)

let root_pre v = next_used v 0

(* ------------------------------------------------------------------ runs -- *)

let run_of col ~phys ~pre ~len =
  { Storage_intf.level = col Schema_up.Clevel;
    size = col Schema_up.Csize;
    kind = col Schema_up.Ckind;
    name = col Schema_up.Cname;
    phys;
    pre;
    len }

let image_col page c = page.(Schema_up.col_index c)

(* Page [phys] of the pinned snapshot as one run, validated seqlock style:
   [f] reads the cached arrays, and its result counts only if no commit has
   begun since. Otherwise [f] reads the run again inside the seqlock, from
   the chain's image of the page, or from the base when no commit since has
   touched the page. A raise from a read that turns out overtaken was a
   torn read, so it is read again too. *)
let snap_run v s phys ~pre ~len acc f =
  let off = pre land s.mask in
  let pos = (phys lsl s.bits) lor off in
  let again () =
    Obs.inc m_overtaken_runs;
    in_seqlock s (fun () ->
        f acc
          (match Version.find_page s.vs phys with
          | Some page -> run_of (image_col page) ~phys:off ~pre ~len
          | None -> run_of (Schema_up.column_data v.b) ~phys:pos ~pre ~len))
  in
  match f acc (run_of (snap_col s) ~phys:pos ~pre ~len) with
  | acc -> if Version.is_current s.vs then acc else again ()
  | exception e -> if Version.is_current s.vs then raise e else again ()

(* One run per logical page. A staged view's pagemap places its pages (a
   splice moves them); a page it wrote is its private image, any other a
   snapshot page. *)
let fold_runs v ~lo ~hi ~init f =
  let s = match v.fl with Snapshot s | Staged (s, _) -> s in
  Storage_intf.fold_pages ~page_size:(s.mask + 1) ~lo ~hi:(min hi (extent v))
    ~init (fun acc first last ->
      Fault.hit "view.run";
      let len = last - first and lp = first lsr s.bits in
      match v.fl with
      | Snapshot _ -> snap_run v s s.l2p.(lp) ~pre:first ~len acc f
      | Staged (_, st) -> (
        let phys = Pagemap.phys_of_logical st.pmap lp in
        match Hashtbl.find_opt st.pages phys with
        | Some page -> f acc (run_of (image_col page) ~phys:(first land s.mask) ~pre:first ~len)
        | None ->
          check_base st phys "fold_runs";
          snap_run v s phys ~pre:first ~len acc f))
