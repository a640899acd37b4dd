open Column

type col = Csize | Clevel | Ckind | Cname | Cnode

type t = {
  pbits : int;
  mutable map : Pagemap.t;
  size : Varray.t;
  level : Varray.t;
  kind : Varray.t;
  name : Varray.t;
  node : Varray.t;
  node_pos : Varray.t; (* node id -> pos, NULL when freed *)
  mutable free_nodes : int list; (* recyclable node ids *)
  mutable live : int; (* used slots *)
  values : Values.t;
  attr_node : Varray.t; (* owner node id, NULL = tombstone *)
  attr_qn : Varray.t;
  attr_prop : Varray.t;
  attr_index : (int, int list) Hashtbl.t; (* node id -> rows, reverse order *)
  (* per physical page: LSN of the last commit that rewrote it, and of the
     last one that adjusted a size on it *)
  bulk_stamps : Varray.t;
  delta_stamps : Varray.t;
  shared_mu : Mutex.t;
      (* guards what concurrent staging transactions and snapshot readers
         share here: the node-id allocator and the attribute index *)
}

let default_page_bits = 12

let m_fill_rate =
  Obs.gauge ~help:"used slots / physical slots (slack fill rate)"
    "schema_up.fill_rate"

let m_vacuum_duration =
  Obs.histogram ~help:"compaction (vacuum) duration [s]" "schema_up.vacuum_duration"

let m_vacuums = Obs.counter ~help:"compaction (vacuum) runs" "schema_up.vacuums"

let m_vacuum_reclaimed =
  Obs.counter ~help:"physical slots reclaimed by vacuum" "schema_up.vacuum_reclaimed"

let create ?(page_bits = default_page_bits) () =
  { pbits = page_bits;
    map = Pagemap.create ~bits:page_bits;
    size = Varray.create ();
    level = Varray.create ();
    kind = Varray.create ();
    name = Varray.create ();
    node = Varray.create ();
    node_pos = Varray.create ();
    free_nodes = [];
    live = 0;
    values = Values.create ();
    attr_node = Varray.create ();
    attr_qn = Varray.create ();
    attr_prop = Varray.create ();
    attr_index = Hashtbl.create 64;
    bulk_stamps = Varray.create ();
    delta_stamps = Varray.create ();
    shared_mu = Mutex.create () }

(* ------------------------------------------------------- physical layer *)

let page_bits t = t.pbits

let page_size t = 1 lsl t.pbits

let npages t = Pagemap.npages t.map

let capacity t = Pagemap.capacity t.map

let pagemap t = t.map

let set_pagemap t m =
  if Pagemap.bits m <> t.pbits || Pagemap.npages m <> npages t then
    invalid_arg "Schema_up.set_pagemap: page geometry mismatch";
  t.map <- m

(* Hot path: every view access swizzles pre -> pos. MonetDB's memory-mapped
   view gets this for free from the MMU; here it is two shifts, a mask and an
   unchecked array load (indices are valid whenever pre < extent, which all
   callers establish). *)
let pos_of_pre t pre =
  let mask = (1 lsl t.pbits) - 1 in
  (Array.unsafe_get (Pagemap.unsafe_l2p t.map) (pre lsr t.pbits) lsl t.pbits)
  lor (pre land mask)

let pre_of_pos t pos =
  let mask = (1 lsl t.pbits) - 1 in
  (Array.unsafe_get (Pagemap.unsafe_p2l t.map) (pos lsr t.pbits) lsl t.pbits)
  lor (pos land mask)

let column t = function
  | Csize -> t.size
  | Clevel -> t.level
  | Ckind -> t.kind
  | Cname -> t.name
  | Cnode -> t.node

let cols = [| Csize; Clevel; Ckind; Cname; Cnode |]

let col_index = function
  | Csize -> 0
  | Clevel -> 1
  | Ckind -> 2
  | Cname -> 3
  | Cnode -> 4

let col_of_index i = cols.(i)

let get_cell t c pos = Varray.get (column t c) pos

let column_data t c = Varray.unsafe_data (column t c)

let set_cell t c pos v = Varray.set (column t c) pos v

(* Free-run lengths of the page at [base] of [level]/[size]: an unused slot's
   size counts the unused slots directly following it within the page. *)
let free_runs ~level ~size ~base p =
  let following = ref 0 in
  for off = p - 1 downto 0 do
    if level.(base + off) = Varray.null then begin
      size.(base + off) <- !following;
      incr following
    end
    else following := 0
  done

let recompute_free_runs page =
  free_runs ~level:page.(col_index Clevel) ~size:page.(col_index Csize) ~base:0
    (Array.length page.(0))

let recompute_page_runs t phys =
  let p = page_size t in
  free_runs ~level:(column_data t Clevel) ~size:(column_data t Csize)
    ~base:(phys * p) p

(* Fresh pages come up all-unused: level NULL, free runs covering the page. *)
let blank_page p =
  let page =
    Array.map (Array.make p)
      [| 0; Varray.null; Kind.to_int Kind.Text; 0; Varray.null |]
  in
  recompute_free_runs page;
  page

let grow_pages t ~count =
  let p = page_size t in
  let blank = blank_page p in
  List.init count (fun _ ->
      let phys = Pagemap.append_page t.map in
      Array.iteri
        (fun ci c ->
          Varray.ensure_length (column t c) ((phys + 1) * p) 0;
          Array.blit blank.(ci) 0 (column_data t c) (phys * p) p)
        cols;
      phys)

type stamp = Bulk | Delta

let stamps t = function Bulk -> t.bulk_stamps | Delta -> t.delta_stamps

let page_stamp t kind phys =
  let a = stamps t kind in
  if phys < Varray.length a then Varray.get a phys else 0

let stamp_page t kind phys lsn =
  let a = stamps t kind in
  Varray.ensure_length a (phys + 1) 0;
  Varray.set a phys lsn

(* MVCC pre-image and staging copy: one physical page of all five columns,
   in [col] declaration order (size, level, kind, name, node). *)
let capture_page t phys =
  let p = page_size t in
  Array.map (fun c -> Array.sub (column_data t c) (phys * p) p) cols

(* --------------------------------------------------------- the pre view *)

let extent t = capacity t

let node_count t = t.live

let next_used t pre =
  let stop = extent t in
  let level = Varray.unsafe_data t.level in
  let size = Varray.unsafe_data t.size in
  let pre = ref pre in
  while
    !pre < stop
    &&
    let pos = pos_of_pre t !pre in
    if Array.unsafe_get level pos = Varray.null then begin
      (* Page-local free run: hop over it in one step. *)
      pre := Storage_intf.skip_free !pre (Array.unsafe_get size pos);
      true
    end
    else false
  do
    ()
  done;
  min !pre stop

let size t pre = Array.unsafe_get (Varray.unsafe_data t.size) (pos_of_pre t pre)

let level t pre = Array.unsafe_get (Varray.unsafe_data t.level) (pos_of_pre t pre)

let kind t pre =
  Kind.of_int (Array.unsafe_get (Varray.unsafe_data t.kind) (pos_of_pre t pre))

let name_id t pre = Array.unsafe_get (Varray.unsafe_data t.name) (pos_of_pre t pre)

let qname t pre = Values.qname t.values (kind t pre) (name_id t pre)

let content t pre = Values.content t.values (kind t pre) (name_id t pre)

let pi_target t pre = Values.pi_target t.values (kind t pre) (name_id t pre)

let qn_id t q = Values.qn_id t.values q

let values t = t.values

let root_pre t = next_used t 0

(* One run per logical page, swizzled once. *)
let fold_runs t ~lo ~hi ~init f =
  let level = column_data t Clevel and size = column_data t Csize in
  let kind = column_data t Ckind and name = column_data t Cname in
  Storage_intf.fold_pages ~page_size:(page_size t) ~lo ~hi:(min hi (extent t))
    ~init (fun acc first last ->
      f acc
        { Storage_intf.level;
          size;
          kind;
          name;
          phys = pos_of_pre t first;
          pre = first;
          len = last - first })

(* ------------------------------------------------------- node identity *)

let node_ids t = Varray.length t.node_pos

let node_pos_get t id = Varray.get t.node_pos id

let node_pos_set t id pos = Varray.set t.node_pos id pos

let locked t f =
  Mutex.lock t.shared_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.shared_mu) f

let fresh_node_id t =
  locked t (fun () ->
      match t.free_nodes with
      | id :: rest ->
        t.free_nodes <- rest;
        id
      | [] -> Varray.push t.node_pos Varray.null)

let free_node_id t id =
  locked t (fun () ->
      Varray.set t.node_pos id Varray.null;
      t.free_nodes <- id :: t.free_nodes)

let ensure_node_ids t n = Varray.ensure_length t.node_pos n Varray.null

let node_at t ~pre =
  let pos = pos_of_pre t pre in
  if Varray.get t.level pos = Varray.null then
    invalid_arg "Schema_up.node_at: unused slot";
  Varray.get t.node pos

let pre_of_node t id =
  if id < 0 || id >= node_ids t then None
  else
    let pos = Varray.get t.node_pos id in
    if pos = Varray.null then None else Some (pre_of_pos t pos)

(* -------------------------------------------------------------- attributes *)

(* The attribute index is a [Hashtbl] keyed by node id, read by snapshot
   readers on other domains, so every probe and mutation is a [shared_mu]
   critical section. *)
let attr_add t ~node ~qn ~prop =
  locked t (fun () ->
      let row = Varray.push t.attr_node node in
      let _ = Varray.push t.attr_qn qn in
      let _ = Varray.push t.attr_prop prop in
      let prev = Option.value ~default:[] (Hashtbl.find_opt t.attr_index node) in
      Hashtbl.replace t.attr_index node (row :: prev);
      row)

let attr_tombstone t ~row =
  locked t (fun () ->
      let node = Varray.get t.attr_node row in
      if node <> Varray.null then begin
        Varray.set t.attr_node row Varray.null;
        match Hashtbl.find_opt t.attr_index node with
        | None -> ()
        | Some rows -> (
          match List.filter (fun r -> r <> row) rows with
          | [] -> Hashtbl.remove t.attr_index node
          | rows' -> Hashtbl.replace t.attr_index node rows')
      end)

let attr_rows_of_node t node =
  locked t (fun () ->
      List.rev (Option.value ~default:[] (Hashtbl.find_opt t.attr_index node)))

let attr_row t row =
  (Varray.get t.attr_node row, Varray.get t.attr_qn row, Varray.get t.attr_prop row)

(* The index lists a node's rows newest first, so the last match is the
   first in stored order. *)
let attr_prop_below t node ~below qid =
  Mutex.protect t.shared_mu (fun () ->
      let rec scan found = function
        | [] -> found
        | row :: rest ->
          scan
            (if row < below && Varray.get t.attr_qn row = qid then
               Varray.get t.attr_prop row
             else found)
            rest
      in
      match Hashtbl.find t.attr_index node with
      | rows -> scan Varray.null rows
      | exception Not_found -> Varray.null)

let attr_table_len t = Varray.length t.attr_node

let attr_live_count t =
  Varray.fold_left (fun acc n -> if n <> Varray.null then acc + 1 else acc) 0 t.attr_node

let attributes t pre =
  (* The paper's indirection: a pre result is swizzled to its node id, and
     the attribute table is probed by node id. *)
  let node = node_at t ~pre in
  List.map
    (fun row ->
      let _, qn, prop = attr_row t row in
      Values.attribute t.values ~qn ~prop)
    (attr_rows_of_node t node)

let attribute_id t pre qid =
  let prop = attr_prop_below t (node_at t ~pre) ~below:max_int qid in
  if prop = Varray.null then None else Some (Values.get t.values Values.Dprop prop)

let attribute t pre q = Option.bind (qn_id t q) (attribute_id t pre)

(* ------------------------------------------------------------ bookkeeping *)

let update_fill_rate t =
  let cap = capacity t in
  Obs.set m_fill_rate
    (if cap = 0 then 0.0 else float_of_int t.live /. float_of_int cap)

let add_live_nodes t d =
  t.live <- t.live + d;
  update_fill_rate t

(* Every node id that maps to no slot is recyclable. *)
let repool_free_nodes t =
  t.free_nodes <- [];
  for id = node_ids t - 1 downto 0 do
    if Varray.get t.node_pos id = Varray.null then t.free_nodes <- id :: t.free_nodes
  done

(* The fill-factor layout [of_dom] and [compact] share: the node table
   becomes [n] tuples in document order on fresh pages, [fill] of each page
   used, under an identity pageOffset. [place i pos] writes tuple [i] and
   its node/pos entry at [pos]; every node id it leaves without a slot is
   re-pooled. *)
let lay_out t ~what ~fill n place =
  if fill <= 0.0 || fill > 1.0 then invalid_arg (what ^ ": fill in (0,1]");
  let p = page_size t in
  let per_page = max 1 (min p (int_of_float (Float.round (fill *. float_of_int p)))) in
  let pages = max 1 ((n + per_page - 1) / per_page) in
  t.map <- Pagemap.create ~bits:t.pbits;
  Array.iter (fun c -> Varray.truncate (column t c) 0) cols;
  Varray.truncate t.bulk_stamps 0;
  Varray.truncate t.delta_stamps 0;
  Varray.fill t.node_pos ~pos:0 ~len:(node_ids t) Varray.null;
  ignore (grow_pages t ~count:pages);
  for i = 0 to n - 1 do
    place i ((i / per_page * p) + (i mod per_page))
  done;
  for page = 0 to pages - 1 do
    recompute_page_runs t page
  done;
  repool_free_nodes t;
  t.live <- n;
  update_fill_rate t

(* ----------------------------------------------------------------- shred *)

let of_dom ?(page_bits = default_page_bits) ?(fill = 0.8) d =
  let t = create ~page_bits () in
  let items = Shred.sequence d in
  (* Node ids are identical to pos at shredding time (paper §3.1): the
     node/pos table covers every slot (all pages are grown before the first
     item is placed), so slack slots' ids are recyclable from the start. *)
  lay_out t ~what:"Schema_up.of_dom" ~fill (Array.length items) (fun i pos ->
      let { Shred.size; level; payload } = items.(i) in
      let kind, name =
        Values.encode t.values payload ~attr:(fun ~qn ~prop ->
            ignore (attr_add t ~node:pos ~qn ~prop))
      in
      Varray.set t.size pos size;
      Varray.set t.level pos level;
      Varray.set t.kind pos (Kind.to_int kind);
      Varray.set t.name pos name;
      Varray.set t.node pos pos;
      ensure_node_ids t (capacity t);
      Varray.set t.node_pos pos pos);
  t

(* ------------------------------------------------------------------ vacuum *)

let compact ?(fill = 0.8) t =
  let vacuum_t0 = Obs.monotonic () in
  let slots_before = capacity t in
  (* Collect live tuples in document (pre) order. *)
  let live = t.live in
  let osize = Array.make live 0
  and olevel = Array.make live 0
  and okind = Array.make live 0
  and oname = Array.make live 0
  and onode = Array.make live 0 in
  let i = ref 0 in
  let pre = ref (next_used t 0) in
  while !pre < extent t do
    let pos = pos_of_pre t !pre in
    osize.(!i) <- Varray.get t.size pos;
    olevel.(!i) <- Varray.get t.level pos;
    okind.(!i) <- Varray.get t.kind pos;
    oname.(!i) <- Varray.get t.name pos;
    onode.(!i) <- Varray.get t.node pos;
    incr i;
    pre := next_used t (!pre + 1)
  done;
  assert (!i = live);
  lay_out t ~what:"Schema_up.compact" ~fill live (fun j pos ->
      Varray.set t.size pos osize.(j);
      Varray.set t.level pos olevel.(j);
      Varray.set t.kind pos okind.(j);
      Varray.set t.name pos oname.(j);
      Varray.set t.node pos onode.(j);
      Varray.set t.node_pos onode.(j) pos);
  (* Drop tombstoned attribute rows. *)
  let keep = ref [] in
  Varray.iteri
    (fun row owner ->
      if owner <> Varray.null then
        keep := (owner, Varray.get t.attr_qn row, Varray.get t.attr_prop row) :: !keep)
    t.attr_node;
  Varray.truncate t.attr_node 0;
  Varray.truncate t.attr_qn 0;
  Varray.truncate t.attr_prop 0;
  Hashtbl.reset t.attr_index;
  List.iter
    (fun (owner, qn, prop) -> ignore (attr_add t ~node:owner ~qn ~prop))
    (List.rev !keep);
  Obs.inc m_vacuums;
  Obs.add m_vacuum_reclaimed (max 0 (slots_before - capacity t));
  Obs.observe m_vacuum_duration (Obs.monotonic () -. vacuum_t0)

(* ------------------------------------------------------------- persistence *)

let save t enc =
  let open Persist.Enc in
  int enc t.pbits;
  int_array enc (Pagemap.to_array t.map);
  varray enc t.size;
  varray enc t.level;
  varray enc t.kind;
  varray enc t.name;
  varray enc t.node;
  varray enc t.node_pos;
  int enc t.live;
  Values.save t.values enc;
  varray enc t.attr_node;
  varray enc t.attr_qn;
  varray enc t.attr_prop

let rebuild_attr_index t =
  Hashtbl.reset t.attr_index;
  Varray.iteri
    (fun row owner ->
      if owner <> Varray.null then begin
        let prev = Option.value ~default:[] (Hashtbl.find_opt t.attr_index owner) in
        Hashtbl.replace t.attr_index owner (row :: prev)
      end)
    t.attr_node

let rebuild_transients t =
  repool_free_nodes t;
  let live = ref 0 in
  Varray.iteri (fun _ l -> if l <> Varray.null then incr live) t.level;
  t.live <- !live;
  rebuild_attr_index t

let load dec =
  let open Persist.Dec in
  let pbits = int dec in
  let map = Pagemap.of_array ~bits:pbits (int_array dec) in
  let size = varray dec in
  let level = varray dec in
  let kind = varray dec in
  let name = varray dec in
  let node = varray dec in
  let node_pos = varray dec in
  let live = int dec in
  let values = Values.load dec in
  let attr_node = varray dec in
  let attr_qn = varray dec in
  let attr_prop = varray dec in
  let t =
    { pbits; map; size; level; kind; name; node; node_pos; free_nodes = []; live;
      values; attr_node; attr_qn; attr_prop;
      attr_index = Hashtbl.create 64;
      bulk_stamps = Varray.create ();
      delta_stamps = Varray.create ();
      shared_mu = Mutex.create () }
  in
  rebuild_transients t;
  t.live <- live;
  t

(* -------------------------------------------------------------- integrity *)

let check_integrity t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let p = page_size t in
  let cap = capacity t in
  let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
  let* () =
    if
      Varray.length t.size = cap && Varray.length t.level = cap
      && Varray.length t.kind = cap && Varray.length t.name = cap
      && Varray.length t.node = cap
    then Ok ()
    else fail "column lengths disagree with capacity %d" cap
  in
  (* pageOffset is a permutation with consistent inverse. *)
  let* () =
    let rec loop l =
      if l >= npages t then Ok ()
      else
        let phys = Pagemap.phys_of_logical t.map l in
        if phys < 0 || phys >= npages t then fail "pagemap: phys %d out of range" phys
        else if Pagemap.logical_of_phys t.map phys <> l then
          fail "pagemap: inverse mismatch at logical %d" l
        else loop (l + 1)
    in
    loop 0
  in
  (* Page-local free runs. *)
  let* () =
    let err = ref None in
    for page = 0 to npages t - 1 do
      let following = ref 0 in
      for off = p - 1 downto 0 do
        let pos = (page * p) + off in
        if Varray.get t.level pos = Varray.null then begin
          if Varray.get t.size pos <> !following && !err = None then
            err :=
              Some
                (Printf.sprintf "free run at pos %d: stored %d, actual %d" pos
                   (Varray.get t.size pos) !following);
          incr following
        end
        else following := 0
      done
    done;
    match !err with None -> Ok () | Some m -> Error m
  in
  (* node/pos agreement both ways + live count. *)
  let* () =
    let used = ref 0 in
    let err = ref None in
    for pos = 0 to cap - 1 do
      if Varray.get t.level pos <> Varray.null then begin
        incr used;
        let id = Varray.get t.node pos in
        if id < 0 || id >= node_ids t then (
          if !err = None then err := Some (Printf.sprintf "pos %d: bad node id %d" pos id))
        else if Varray.get t.node_pos id <> pos && !err = None then
          err :=
            Some
              (Printf.sprintf "pos %d: node/pos points to %d" pos
                 (Varray.get t.node_pos id))
      end
    done;
    for id = 0 to node_ids t - 1 do
      let pos = Varray.get t.node_pos id in
      if pos <> Varray.null then
        if pos < 0 || pos >= cap then (
          if !err = None then err := Some (Printf.sprintf "node %d: pos %d out of range" id pos))
        else if Varray.get t.level pos = Varray.null then (
          if !err = None then
            err := Some (Printf.sprintf "node %d: points to unused pos %d" id pos))
        else if Varray.get t.node pos <> id && !err = None then
          err := Some (Printf.sprintf "node %d: pos %d holds node %d" id pos (Varray.get t.node pos))
    done;
    if !err <> None then Error (Option.get !err)
    else if !used <> t.live then fail "live counter %d but %d used slots" t.live !used
    else Ok ()
  in
  (* Tree shape over the view: levels nest properly and stored sizes equal
     real descendant counts. *)
  let* () =
    let stack = ref [] in
    (* (level, stored size, used-ordinal at node) *)
    let ord = ref 0 in
    let err = ref None in
    let pop_while cond =
      let rec go () =
        match !stack with
        | (lvl, stored, at) :: rest when cond lvl ->
          let descendants = !ord - at - 1 in
          if stored <> descendants && !err = None then
            err :=
              Some
                (Printf.sprintf "node at ordinal %d: size %d but %d descendants"
                   at stored descendants);
          stack := rest;
          go ()
        | _ -> ()
      in
      go ()
    in
    let pre = ref (next_used t 0) in
    while !pre < extent t && !err = None do
      let l = level t !pre in
      pop_while (fun lvl -> lvl >= l);
      (match !stack with
      | [] ->
        if !ord > 0 && !err = None then
          err := Some (Printf.sprintf "second root at pre %d" !pre)
        else if l <> 0 && !err = None then
          err := Some (Printf.sprintf "root level %d at pre %d" l !pre)
      | (plvl, _, _) :: _ ->
        if plvl <> l - 1 && !err = None then
          err := Some (Printf.sprintf "pre %d: level %d under parent level %d" !pre l plvl));
      stack := (l, size t !pre, !ord) :: !stack;
      incr ord;
      pre := next_used t (!pre + 1)
    done;
    pop_while (fun _ -> true);
    match !err with None -> Ok () | Some m -> Error m
  in
  (* Attribute table vs index. *)
  let* () =
    let err = ref None in
    Varray.iteri
      (fun row owner ->
        if owner <> Varray.null then begin
          if owner < 0 || owner >= node_ids t || Varray.get t.node_pos owner = Varray.null
          then (
            if !err = None then
              err := Some (Printf.sprintf "attr row %d: dangling owner %d" row owner))
          else if not (List.mem row (attr_rows_of_node t owner)) && !err = None then
            err := Some (Printf.sprintf "attr row %d: missing from index" row)
        end)
      t.attr_node;
    Hashtbl.iter
      (fun node rows ->
        List.iter
          (fun row ->
            if Varray.get t.attr_node row <> node && !err = None then
              err := Some (Printf.sprintf "attr index: row %d not owned by %d" row node))
          rows)
      t.attr_index;
    match !err with None -> Ok () | Some m -> Error m
  in
  Ok ()

let stats t =
  { Storage_intf.slots = capacity t;
    nodes = t.live;
    attrs = attr_live_count t;
    distinct_qnames = Values.length t.values Values.Dqn;
    distinct_props = Values.length t.values Values.Dprop;
    approx_bytes =
      (5 * capacity t * 8) (* size, level, kind, name, node *)
      + (Varray.length t.node_pos * 8)
      + (2 * npages t * 8) (* pageOffset both directions *)
      + (3 * Varray.length t.attr_node * 8)
      + Values.approx_bytes t.values }
