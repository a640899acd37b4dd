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
  locks : Lock.t;
  lane : shared;
  doc_id : int;
  versions : Version.store;
  mutable next_txn : int;
  mutable last_commit : int;
  id_mu : Mutex.t;
}

let manager ?wal ?(lock_timeout_s = 1.0) ?(next_txn = 1) ?(doc_id = 0) ?shared:lane
    base =
  { base;
    locks = Lock.create ~timeout_s:lock_timeout_s ();
    lane = (match lane with Some l -> l | None -> shared ?wal ());
    doc_id;
    versions = Version.create ~epoch:(next_txn - 1) base;
    next_txn;
    last_commit = next_txn - 1;
    id_mu = Mutex.create () }

let last_committed m = m.last_commit

let store m = m.base

let lock_table m = m.locks

let wal m = m.lane.wal_log

let lane m = m.lane

let doc_id m = m.doc_id

let versions m = m.versions

let exclusively lane f =
  Mutex.lock lane.commit_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock lane.commit_mu) f

let with_commit_mu m f = exclusively m.lane f

let exclusive m f = with_commit_mu m (fun () -> f (View.direct m.base))

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
  held : (int, bool) Hashtbl.t; (* page -> write?; fast path before the lock table *)
  mutable state : state;
}

let id t = t.txn_id

let view t = t.v

let begin_write m =
  Obs.inc m_begins;
  Mutex.lock m.id_mu;
  let txn_id = m.next_txn in
  m.next_txn <- txn_id + 1;
  Mutex.unlock m.id_mu;
  let held = Hashtbl.create 16 in
  let snapshot = ref 0 in
  (* Snapshot validation (first-committer-wins): touching a base page that a
     later commit has modified — bulk change OR a commutative size delta —
     would mix that commit's data with this transaction's frozen pageOffset
     snapshot, so it conflicts instead. Pages never re-touched after a
     concurrent commit keep the transaction's snapshot consistent. *)
  let check page =
    let stamp = Schema_up.page_stamp m.base page in
    if stamp > !snapshot then begin
      Obs.inc m_conflicts;
      raise (Conflict { page; stamp; snapshot = !snapshot })
    end
  in
  let touch page write =
    (match Hashtbl.find_opt held page with
    | Some true -> ()
    | Some false when not write -> ()
    | _ ->
      Lock.acquire_page m.locks ~owner:txn_id ~page ~write;
      Hashtbl.replace held page write);
    check page
  in
  (* The pageOffset snapshot must be consistent with the snapshot LSN: take
     both under the commit mutex, excluding mid-flight commits. *)
  let v =
    with_commit_mu m (fun () ->
        snapshot := m.last_commit;
        View.staged ~touch ~seq:(Version.seq m.versions) m.base)
  in
  { m; txn_id; v; held; state = Active }

let check_active t what =
  match t.state with
  | Active -> ()
  | Committed -> invalid_arg (what ^ ": transaction already committed")
  | Rolled_back -> invalid_arg (what ^ ": transaction already aborted")

let release t =
  Lock.release_all t.m.locks ~owner:t.txn_id;
  Hashtbl.reset t.held

let abort t =
  check_active t "Txn.abort";
  Obs.inc m_rollbacks;
  t.state <- Rolled_back;
  (match View.staged_state t.v with
  | None -> ()
  | Some st ->
    (* The base was never written; just return allocated node ids. *)
    List.iter (Schema_up.free_node_id t.m.base) st.View.fresh_nodes);
  release t

let col_of_int = function
  | 0 -> Schema_up.Csize
  | 1 -> Schema_up.Clevel
  | 2 -> Schema_up.Ckind
  | 3 -> Schema_up.Cname
  | 4 -> Schema_up.Cnode
  | n -> invalid_arg (Printf.sprintf "Txn: bad column index %d" n)

(* Redo one commit record onto the base store — used both by live commits
   (under the global write lock) and by recovery. [lsn] orders page stamps by
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
  let bump_page phys = Schema_up.stamp_page b phys lsn in
  let bump_pos pos = bump_page (pos / p) in
  let fresh = Schema_up.grow_pages b ~count:(List.length r.Wal.pages) in
  List.iter bump_page fresh;
  List.iter (fun (pos, _, _) -> bump_pos pos) r.Wal.cells;
  List.iter2
    (fun phys arrays ->
      let base_pos = phys * p in
      Array.iteri
        (fun ci col ->
          let c = col_of_int ci in
          Array.iteri (fun off v -> Schema_up.set_cell b c (base_pos + off) v) col)
        arrays)
    fresh r.Wal.pages;
  List.iter
    (fun (pos, ci, v) -> Schema_up.set_cell b (col_of_int ci) pos v)
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
          bump_pos pos;
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
  let shift = cur_np - st.View.base_npages in
  assert (shift >= 0);
  let renum_page pg = if pg >= st.View.base_npages then pg + shift else pg in
  let renum_pos pos = if pos >= st.View.base_npages * p then pos + (shift * p) else pos in
  (* Ancestor sizes are updated WITHOUT page locks (the commutative-delta
     trick), so a size value this transaction copied while moving a tuple
     within its locked pages may be stale: a concurrent commit's delta can
     have landed on the base since. A committed size cell of a pre-existing
     live node must therefore be the node's CURRENT base size — our own
     change to it travels separately in [size_deltas]. Free-run lengths
     (unused slots) and brand-new nodes keep their staged values. *)
  let read_staged col pos =
    match Hashtbl.find_opt st.View.cells ((pos * 8) lor View.col_index col) with
    | Some v -> v
    | None ->
      if pos < st.View.base_npages * p then Schema_up.get_cell b col pos
      else
        let page = (pos / p) - st.View.base_npages in
        st.View.sp.(page).(View.col_index col).(pos mod p)
  in
  let current_size_of_node ~staged_level ~staged_node ~staged_size =
    if staged_level = Column.Varray.null then staged_size (* free-run length *)
    else if staged_node < 0 || staged_node >= Schema_up.node_ids b then staged_size
    else
      let base_pos = Schema_up.node_pos_get b staged_node in
      if base_pos = Column.Varray.null then staged_size (* new node *)
      else Schema_up.get_cell b Schema_up.Csize base_pos
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
  let cells =
    Hashtbl.fold
      (fun key v acc ->
        let pos = key lsr 3 and col = key land 7 in
        let v =
          if col = View.col_index Schema_up.Csize then
            current_size_of_node
              ~staged_level:(read_staged Schema_up.Clevel pos)
              ~staged_node:(read_staged Schema_up.Cnode pos)
              ~staged_size:v
          else v
        in
        (pos, col, v) :: acc)
      st.View.cells []
  in
  let pages =
    List.init st.View.sp_len (fun i ->
        let page = st.View.sp.(i) in
        let size_col = Array.copy page.(View.col_index Schema_up.Csize) in
        Array.iteri
          (fun off v ->
            size_col.(off) <-
              current_size_of_node
                ~staged_level:page.(View.col_index Schema_up.Clevel).(off)
                ~staged_node:page.(View.col_index Schema_up.Cnode).(off)
                ~staged_size:v)
          size_col;
        Array.mapi
          (fun ci col -> if ci = View.col_index Schema_up.Csize then size_col else col)
          page)
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
  List.iter (fun (pos, _, _) -> Version.capture_page vs (pos / p)) r.Wal.cells;
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
            List.iter
              (fun (t, _, _) -> if t.state = Active then abort t)
              staged;
            raise (Aborted ("validation failed: " ^ msg))))
      staged;
    let t0m = Obs.monotonic () in
    (match
       exclusively t0.m.lane (fun () ->
           let recs =
             List.map (fun (t, _, st) -> (t, build_record t st)) staged
           in
           (* Failpoint: a crash here loses the group entirely — the WAL
              frame was never written, recovery must not see it. *)
           Fault.hit "txn.commit.before_wal";
           (* The WAL write is the commit point: a single flushed frame
              carrying every document's record. *)
           (match t0.m.lane.wal_log with
           | None -> ()
           | Some w -> Wal.append_group w (List.map snd recs));
           (* Failpoint: the frame is durable but nothing was applied — the
              whole group must be present after recovery. *)
           Fault.hit "txn.commit.after_wal";
           List.iter
             (fun (t, record) ->
               let lsn = t.m.last_commit + 1 in
               (* Short MVCC critical section per document: flip the seqlock
                  odd, capture the pre-images, apply in place, install the
                  new version. Readers pinned at older versions retry any
                  read overlapping this window and then resolve through the
                  captured overlays. *)
               let cs0 = Version.commit_begin t.m.versions in
               Fun.protect
                 ~finally:(fun () ->
                   Version.commit_end t.m.versions ~epoch:lsn cs0)
                 (fun () ->
                   capture_for_snapshot t.m record;
                   apply_wal_record ~lsn t.m.base record);
               t.m.last_commit <- lsn)
             recs)
     with
    | () ->
      List.iter
        (fun (t, _, _) ->
          t.state <- Committed;
          Obs.inc m_commits;
          release t)
        staged;
      Obs.observe m_commit_latency (Obs.monotonic () -. t0m)
    | exception e ->
      (* Apply-phase failures must not leave any member half-open. *)
      List.iter
        (fun (t, _, _) ->
          if t.state = Active then begin
            t.state <- Rolled_back;
            Obs.inc m_rollbacks;
            release t
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
      | Lock.Would_deadlock { page; _ } ->
        Aborted (Printf.sprintf "deadlock timeout on page %d" page)
      | Conflict { page; _ } ->
        Aborted (Printf.sprintf "snapshot conflict on page %d" page)
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
            Schema_up.stamp_page m.base page lsn
          done;
          m.last_commit <- lsn;
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
