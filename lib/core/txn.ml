open Column

(* The commit lane shared by every document of a catalog: one commit mutex
   serialising commit application, begin-snapshots, vacuum and checkpoint —
   the paper's short "install the new pageOffset" critical section — and one
   WAL all documents append to. Readers NEVER take the mutex: they pin a
   version. A single-document store simply owns a private lane. *)
type shared = { commit_mu : Mutex.t; wal_log : Wal.t option }

let shared ?wal () = { commit_mu = Mutex.create (); wal_log = wal }

type manager = {
  base : Schema_up.t;
  lane : shared;
  doc_id : int;
  versions : Version.store;
  mutable next_txn : int;
  mutable last_commit : int;
  mutable last_vacuum : int; (* LSN of the last compaction, 0 if none *)
  id_mu : Mutex.t;
}

let manager ?wal ?(next_txn = 1) ?(doc_id = 0) ?shared:lane base =
  { base;
    lane = (match lane with Some l -> l | None -> shared ?wal ());
    doc_id;
    versions = Version.create ~epoch:(next_txn - 1) base;
    next_txn;
    last_commit = next_txn - 1;
    last_vacuum = 0;
    id_mu = Mutex.create () }

let last_committed m = m.last_commit

let store m = m.base

let wal m = m.lane.wal_log

let lane m = m.lane

let doc_id m = m.doc_id

let versions m = m.versions

let exclusively lane f =
  Mutex.lock lane.commit_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock lane.commit_mu) f

let with_commit_mu m f = exclusively m.lane f

exception Aborted of string

exception Conflict of { page : int; stamp : int; snapshot : int }

let m_begins = Obs.counter ~help:"write transactions started" "txn.begins"

let m_commits = Obs.counter ~help:"write transactions committed" "txn.commits"

let m_rollbacks =
  Obs.counter ~help:"write transactions aborted or rolled back" "txn.rollbacks"

let m_conflicts =
  Obs.counter ~help:"snapshot-validation conflicts (first-committer-wins)"
    "txn.conflicts"

let m_commit_latency =
  Obs.histogram ~help:"Txn.commit duration incl. WAL append [s]"
    "txn.commit_latency"

let m_reads = Obs.counter ~help:"read transactions run" "txn.reads"

(* Snapshot-isolated read: pin the newest version and evaluate against it.
   No lock is held during [f] — a long scan never delays a commit, and a
   burst of commits never starves the scan (it keeps reading its pinned
   epoch through the undo chain). *)
let read m f =
  Obs.inc m_reads;
  let v = Version.pin m.versions in
  Fun.protect
    ~finally:(fun () -> Version.unpin m.versions v)
    (fun () -> f (View.snapshot v))

type state = Active | Committed | Rolled_back

type t = {
  m : manager;
  txn_id : int;
  v : View.t;
  snapshot : int; (* last commit LSN visible to this transaction *)
  touched : (int, unit) Hashtbl.t; (* base pages read or written *)
  mutable state : state;
}

let view t = t.v

let begin_write m =
  Obs.inc m_begins;
  Mutex.lock m.id_mu;
  let txn_id = m.next_txn in
  m.next_txn <- txn_id + 1;
  Mutex.unlock m.id_mu;
  let touched = Hashtbl.create 16 in
  (* The pageOffset snapshot must be consistent with the snapshot LSN: take
     both under the commit mutex, excluding mid-flight commits. *)
  with_commit_mu m (fun () ->
      let snapshot = m.last_commit in
      (* Touch-time validation: touching a base page that a later commit
         has modified — bulk change OR a commutative size delta — would mix
         that commit's data with this transaction's frozen pageOffset
         snapshot, so it conflicts instead. The page joins the touched set
         that commit-time validation rechecks. *)
      let touch page =
        Hashtbl.replace touched page ();
        let stamp =
          max
            (Schema_up.page_stamp m.base Bulk page)
            (Schema_up.page_stamp m.base Delta page)
        in
        if stamp > snapshot then begin
          Obs.inc m_conflicts;
          raise (Conflict { page; stamp; snapshot })
        end
      in
      let v = View.staged ~touch ~seq:(Version.seq m.versions) m.base in
      { m; txn_id; v; snapshot; touched; state = Active })

let check_active t what =
  match t.state with
  | Active -> ()
  | Committed -> invalid_arg (what ^ ": transaction already committed")
  | Rolled_back -> invalid_arg (what ^ ": transaction already aborted")

let abort t =
  check_active t "Txn.abort";
  Obs.inc m_rollbacks;
  t.state <- Rolled_back;
  (match View.staged_state t.v with
  | None -> ()
  | Some st ->
    (* The base was never written; just return allocated node ids. *)
    List.iter (Schema_up.free_node_id t.m.base) st.View.fresh_nodes)

(* [f] once per page of a record's cells. [build_record] logs each page's
   cells together; cells of one page apart in a hand-made record cost a
   repeated call, which both callers treat as a no-op. *)
let iter_cell_pages p cells f =
  ignore
    (List.fold_left
       (fun last (pos, _, _) ->
         let page = pos / p in
         if page <> last then f page;
         page)
       (-1) cells)

(* Redo one commit record onto the base store — used both by live commits
   (under the commit mutex) and by recovery. [lsn] orders page stamps by
   commit (txn ids are begin-ordered, which is not the same thing). *)
let apply_wal_record ?lsn b (r : Wal.record) =
  let lsn = Option.value ~default:r.Wal.txn lsn in
  List.iter
    (fun ((p : View.pool), id, s) ->
      match p with
      | View.Ptext -> Schema_up.force_text b id s
      | View.Pcomment -> Schema_up.force_comment b id s
      | View.Ppi_target -> Schema_up.force_pi_target b id s
      | View.Ppi_data -> Schema_up.force_pi_data b id s
      | View.Dqn -> Schema_up.force_qn b id s
      | View.Dprop -> Schema_up.force_prop b id s)
    (List.rev r.Wal.pool);
  let p = Schema_up.page_size b in
  (* Stamps precede data so a racing snapshot-validating reader can never see
     new data under an old stamp. *)
  let bump_page phys = Schema_up.stamp_page b Bulk phys lsn in
  let bump_pos pos = bump_page (pos / p) in
  let fresh = Schema_up.grow_pages b ~count:(List.length r.Wal.pages) in
  List.iter bump_page fresh;
  iter_cell_pages p r.Wal.cells bump_page;
  List.iter2
    (fun phys arrays ->
      let base_pos = phys * p in
      Array.iteri
        (fun ci col ->
          let c = Schema_up.col_of_index ci in
          Array.iteri (fun off v -> Schema_up.set_cell b c (base_pos + off) v) col)
        arrays)
    fresh r.Wal.pages;
  List.iter
    (fun (pos, ci, v) -> Schema_up.set_cell b (Schema_up.col_of_index ci) pos v)
    r.Wal.cells;
  (* Failpoint: half the commit is applied (pools, fresh pages, cell
     writes) but the pageOffset/node-pos/attribute tables are still old —
     a crash here must be fully redone from the WAL frame on recovery. *)
  Fault.hit "txn.commit.mid_apply";
  Schema_up.set_pagemap b
    (Pagemap.of_array ~bits:(Schema_up.page_bits b) r.Wal.page_order);
  List.iter
    (fun (node, pos) ->
      Schema_up.ensure_node_ids b (node + 1);
      Schema_up.node_pos_set b node pos)
    r.Wal.node_pos;
  List.iter
    (fun node ->
      Schema_up.ensure_node_ids b (node + 1);
      Schema_up.node_pos_set b node Varray.null)
    r.Wal.freed_nodes;
  List.iter
    (fun (node, d) ->
      if node < Schema_up.node_ids b then begin
        let pos = Schema_up.node_pos_get b node in
        if pos <> Varray.null then begin
          Schema_up.stamp_page b Delta (pos / p) lsn;
          Schema_up.set_cell b Schema_up.Csize pos
            (Schema_up.get_cell b Schema_up.Csize pos + d)
        end
      end)
    r.Wal.size_deltas;
  let bump_owner node =
    if node >= 0 && node < Schema_up.node_ids b then begin
      let pos = Schema_up.node_pos_get b node in
      if pos <> Varray.null then bump_pos pos
    end
  in
  List.iter
    (fun row ->
      let owner, _, _ = Schema_up.attr_row b row in
      bump_owner owner;
      Schema_up.attr_tombstone b ~row)
    r.Wal.attr_dels;
  List.iter
    (fun (node, qn, prop) ->
      bump_owner node;
      ignore (Schema_up.attr_add b ~node ~qn ~prop))
    r.Wal.attr_adds;
  Schema_up.add_live_nodes b r.Wal.live_delta

(* Turn the staged view into a commit record, renumbering provisional page
   ids by however many pages other transactions appended since we began. *)
let build_record t (st : View.staged) =
  let b = t.m.base in
  let p = Schema_up.page_size b in
  let cur_np = Schema_up.npages b in
  (* No vacuum since the snapshot (commit-time validation), so the base only
     grew. *)
  let shift = cur_np - st.View.base_npages in
  let renum_page pg = if pg >= st.View.base_npages then pg + shift else pg in
  let renum_pos pos = if pos >= st.View.base_npages * p then pos + (shift * p) else pos in
  (* Ancestor sizes are updated as commutative deltas that touch no page, and
     commit-time validation ignores newer delta stamps on touched pages, so
     a size value in a private page may be stale — copied before a
     concurrent commit's delta landed on the base, or carried along while
     moving a tuple. A committed size cell of a pre-existing live node must
     therefore be the node's CURRENT base size — our own change to it
     travels separately in [size_deltas]. Free-run lengths (unused slots)
     and brand-new nodes keep their staged values. *)
  let current_size_of_node ~staged_level ~staged_node ~staged_size =
    if staged_level = Column.Varray.null then staged_size (* free-run length *)
    else if staged_node < 0 || staged_node >= Schema_up.node_ids b then staged_size
    else
      let base_pos = Schema_up.node_pos_get b staged_node in
      if base_pos = Column.Varray.null then staged_size (* new node *)
      else Schema_up.get_cell b Schema_up.Csize base_pos
  in
  let size_i = Schema_up.col_index Schema_up.Csize in
  let committed page =
    let level = page.(Schema_up.col_index Schema_up.Clevel)
    and node = page.(Schema_up.col_index Schema_up.Cnode) in
    Array.mapi
      (fun ci col ->
        if ci <> size_i then col
        else
          Array.mapi
            (fun off staged_size ->
              current_size_of_node ~staged_level:level.(off)
                ~staged_node:node.(off) ~staged_size)
            col)
      page
  in
  (* Final logical page order: replay our splices onto the current order. *)
  let order = ref (Array.to_list (Pagemap.to_array (Schema_up.pagemap b))) in
  List.iter
    (fun { View.anchor; pages } ->
      let pages = List.map renum_page pages in
      let rec insert_after l =
        match anchor, l with
        | View.Start, l -> pages @ l
        | View.After_phys a, x :: rest ->
          if x = renum_page a then (x :: pages) @ rest else x :: insert_after rest
        | View.After_phys a, [] ->
          invalid_arg (Printf.sprintf "Txn: splice anchor page %d vanished" a)
      in
      order := insert_after !order)
    (List.rev st.View.splices);
  (* Appended pages travel whole; a copied base page only as the cells that
     differ from the current base. *)
  let pages =
    List.init st.View.fresh_pages (fun i ->
        committed (Hashtbl.find st.View.pages (st.View.base_npages + i)))
  in
  let cells =
    Hashtbl.fold
      (fun phys page acc ->
        if phys >= st.View.base_npages then acc
        else
          let page = committed page in
          let acc = ref acc in
          Array.iteri
            (fun ci col ->
              let cur = Schema_up.column_data b (Schema_up.col_of_index ci) in
              Array.iteri
                (fun off v ->
                  let pos = (phys * p) + off in
                  if v <> cur.(pos) then acc := (pos, ci, v) :: !acc)
                col)
            page;
          !acc)
      st.View.pages []
  in
  let node_pos =
    Hashtbl.fold
      (fun node pos acc ->
        if pos = Varray.null then (node, Varray.null) :: acc
        else (node, renum_pos pos) :: acc)
      st.View.node_pos_w []
  in
  let size_deltas =
    Hashtbl.fold (fun node d acc -> if d <> 0 then (node, d) :: acc else acc)
      st.View.size_deltas []
  in
  let attr_adds = ref [] in
  for i = st.View.attr_adds_len - 1 downto 0 do
    let (node, qn, prop) = st.View.attr_adds.(i) in
    if node <> Varray.null then attr_adds := (node, qn, prop) :: !attr_adds
  done;
  { Wal.doc = t.m.doc_id;
    txn = t.txn_id;
    cells;
    pages;
    page_order = Array.of_list !order;
    node_pos;
    freed_nodes = st.View.freed_nodes;
    size_deltas;
    attr_adds = !attr_adds;
    attr_dels = st.View.attr_dels;
    pool = List.rev st.View.pool_log;
    live_delta = st.View.live_delta }

(* Pre-image capture for MVCC: everything [apply_wal_record] is about to
   overwrite on the base gets copied into the current newest version first,
   so pinned snapshots keep resolving the old content through the chain.
   Enumerated from the WAL record — the exact description of the commit.
   (Fresh pages need no pre-image and are filtered by the descriptor's page
   extent; attribute adds land past the attr high-water mark; page stamps
   are only read by writers' conflict checks and need no versioning.) *)
let capture_for_snapshot m (r : Wal.record) =
  let vs = m.versions in
  let p = Schema_up.page_size m.base in
  iter_cell_pages p r.Wal.cells (Version.capture_page vs);
  List.iter
    (fun (node, _) ->
      if node < Schema_up.node_ids m.base then begin
        let pos = Schema_up.node_pos_get m.base node in
        if pos <> Varray.null then Version.capture_page vs (pos / p)
      end)
    r.Wal.size_deltas;
  List.iter (fun (node, _) -> Version.capture_node vs node) r.Wal.node_pos;
  List.iter (fun node -> Version.capture_node vs node) r.Wal.freed_nodes;
  List.iter (fun row -> Version.capture_attr vs row) r.Wal.attr_dels

let conflict_on page = Printf.sprintf "snapshot conflict on page %d" page

(* Commit-time validation (first-committer-wins), run under the commit
   mutex. Staging is private and takes no lock, so this is what keeps two
   writers off each other's work. A transaction fails when
   (a) a page it touched carries a bulk stamp newer than its snapshot — a
       later commit rewrote cells or attributes it read or wrote;
   (b) a pre-existing node it frees sits on a page with a newer delta stamp —
       a later commit inserted under that node, and freeing it would orphan
       the insert; other newer deltas commute with this transaction's writes
       ([build_record] re-reads the current sizes);
   (c) its snapshot predates the last vacuum, which relocated every tuple. *)
let stale t (st : View.staged) =
  let b = t.m.base in
  let newer kind page = Schema_up.page_stamp b kind page > t.snapshot in
  let freed_page node =
    let pos = Schema_up.node_pos_get b node in
    if pos = Varray.null then None else Some (pos / Schema_up.page_size b)
  in
  if t.snapshot < t.m.last_vacuum then
    Some
      (Printf.sprintf "snapshot conflict: store vacuumed at LSN %d"
         t.m.last_vacuum)
  else
    match Seq.find (newer Bulk) (Hashtbl.to_seq_keys t.touched) with
    | Some page -> Some (conflict_on page)
    | None ->
      List.find_map
        (fun node ->
          match freed_page node with
          | Some page when newer Delta page -> Some (conflict_on page)
          | _ -> None)
        st.View.freed_nodes

(* The commit proper, under the commit mutex once every member validated:
   one WAL frame, then each document's apply. *)
let log_and_apply lane staged =
  let recs = List.map (fun (t, _, st) -> (t, build_record t st)) staged in
  (* Failpoint: a crash here loses the group entirely — the WAL frame was
     never written, recovery must not see it. *)
  Fault.hit "txn.commit.before_wal";
  (* The WAL write is the commit point: a single flushed frame carrying
     every document's record. *)
  (match lane.wal_log with
  | None -> ()
  | Some w -> Wal.append_group w (List.map snd recs));
  (* Failpoint: the frame is durable but nothing was applied — the whole
     group must be present after recovery. *)
  Fault.hit "txn.commit.after_wal";
  List.iter
    (fun (t, record) ->
      let lsn = t.m.last_commit + 1 in
      (* Short MVCC critical section per document: flip the seqlock odd,
         capture the pre-images, apply in place, install the new version.
         Readers pinned at older versions retry any read overlapping this
         window and then resolve through the captured overlays. *)
      let cs0 = Version.commit_begin t.m.versions in
      Fun.protect
        ~finally:(fun () -> Version.commit_end t.m.versions ~epoch:lsn cs0)
        (fun () ->
          capture_for_snapshot t.m record;
          apply_wal_record ~lsn t.m.base record);
      t.m.last_commit <- lsn)
    recs

(* Atomic commit of a group of transactions — at most one per document, all
   on the same commit lane. The group's records travel in ONE WAL frame, so
   the commit point is still a single flushed I/O and recovery replays the
   whole group or none of it. A group of one is exactly Figure 8's commit. *)
let commit_group ts =
  match ts with
  | [] -> ()
  | (t0, _) :: rest ->
    List.iter (fun (t, _) -> check_active t "Txn.commit") ts;
    List.iter
      (fun (t, _) ->
        if t.m.lane != t0.m.lane then
          invalid_arg "Txn.commit_group: transactions span different commit lanes")
      rest;
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (t, _) ->
        if Hashtbl.mem seen t.m.doc_id then
          invalid_arg "Txn.commit_group: two transactions on the same document";
        Hashtbl.add seen t.m.doc_id ())
      ts;
    let staged =
      List.map
        (fun (t, validate) ->
          match View.staged_state t.v with
          | None -> invalid_arg "Txn.commit: not a staged view"
          | Some st -> (t, validate, st))
        ts
    in
    let abort_all () = List.iter (fun (t, _, _) -> abort t) staged in
    (* Consistency: validate every member before attempting to commit
       (Figure 8); one failure aborts the whole group. *)
    List.iter
      (fun (t, validate, _) ->
        match validate with
        | None -> ()
        | Some check -> (
          match check t.v with
          | Ok () -> ()
          | Error msg ->
            abort_all ();
            raise (Aborted ("validation failed: " ^ msg))))
      staged;
    let t0m = Obs.monotonic () in
    (match
       exclusively t0.m.lane (fun () ->
           match List.find_map (fun (t, _, st) -> stale t st) staged with
           | Some conflict -> Error conflict
           | None -> Ok (log_and_apply t0.m.lane staged))
     with
    | Ok () ->
      List.iter
        (fun (t, _, _) ->
          t.state <- Committed;
          Obs.inc m_commits)
        staged;
      Obs.observe m_commit_latency (Obs.monotonic () -. t0m)
    | Error conflict ->
      Obs.inc m_conflicts;
      abort_all ();
      raise (Aborted conflict)
    | exception e ->
      (* Apply-phase failures must not leave any member half-open. *)
      List.iter
        (fun (t, _, _) ->
          if t.state = Active then begin
            t.state <- Rolled_back;
            Obs.inc m_rollbacks
          end)
        staged;
      raise e)

let commit ?validate t = commit_group [ (t, validate) ]

let with_write_group members f =
  let ts = List.map (fun (m, validate) -> (begin_write m, validate)) members in
  match f (List.map (fun (t, _) -> t.v) ts) with
  | result ->
    commit_group ts;
    result
  | exception e ->
    List.iter (fun (t, _) -> if t.state = Active then abort t) ts;
    raise
      (match e with
      | Conflict { page; _ } -> Aborted (conflict_on page)
      | e -> e)

let with_write m ?validate f =
  with_write_group [ (m, validate) ] (fun views -> f (List.hd views))

(* Compaction relocates tuples physically, which no pre-image overlay can
   describe, so vacuum waits for reader quiescence: commits are excluded by
   the commit mutex, new pins block on the version store, and every pinned
   snapshot must unpin before compaction starts. Stamping all pages at a
   fresh LSN aborts any concurrently staged transaction (its whole snapshot
   is invalid). *)
let vacuum ?fill m =
  with_commit_mu m (fun () ->
      Version.quiesce m.versions (fun () ->
          Schema_up.compact ?fill m.base;
          let lsn = m.last_commit + 1 in
          for page = 0 to Schema_up.npages m.base - 1 do
            Schema_up.stamp_page m.base Bulk page lsn
          done;
          m.last_commit <- lsn;
          m.last_vacuum <- lsn;
          if m.next_txn <= lsn then m.next_txn <- lsn + 1;
          lsn))

(* One pass over a mixed multi-document log: each record is dispatched to
   its document's store (records for unknown ids — documents dropped after
   the checkpoint — are skipped). Transaction ids are per-document, so the
   [after] watermark is looked up per document too. *)
let recover_docs ~wal_path ~store_of ~after =
  let progress : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  let touched : (int, Schema_up.t) Hashtbl.t = Hashtbl.create 8 in
  let (_ : int) =
    Wal.replay wal_path (fun r ->
        match store_of r.Wal.doc with
        | None -> ()
        | Some b ->
          Hashtbl.replace touched r.Wal.doc b;
          let cutoff = after r.Wal.doc in
          let applied, last =
            Option.value ~default:(0, cutoff)
              (Hashtbl.find_opt progress r.Wal.doc)
          in
          let applied =
            if r.Wal.txn > cutoff then begin
              apply_wal_record b r;
              applied + 1
            end
            else applied
          in
          Hashtbl.replace progress r.Wal.doc (applied, max last r.Wal.txn))
  in
  Hashtbl.iter (fun _ b -> Schema_up.rebuild_transients b) touched;
  progress
