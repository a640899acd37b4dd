(** The transaction protocol of Figure 8, with the paper's page locks
    replaced by optimistic validation: multi-version snapshots, first-
    committer-wins on page stamps, write-ahead logging.

    - Read-only work pins an MVCC version descriptor ({!Version}) and
      evaluates against that immutable snapshot — {e no} lock is held
      during evaluation, so long scans never delay commits and commit
      bursts never starve readers.
    - A write transaction pins a version too, and stages everything in a
      {!View.t} over it: private copy-on-write copies of the pages it
      changes, privately appended pages, a private pageOffset. It takes
      {e no} lock, and reads every page it has not written from its
      snapshot, so reads never conflict. Its first write to a base page
      raises {!Conflict} when a newer commit rewrote the page. Ancestor size
      changes travel as commutative deltas and copy no page, so the root is
      never a bottleneck.
    - Commit: optional validation, then the lane's commit mutex, under which
      the write set is validated ({!commit_group}), one WAL frame, a short
      seqlock critical section that captures pre-images for pinned
      snapshots and applies the cells in which each copied page differs
      from the base, install the new pageOffset table and version
      descriptor.
    - Abort: drop the staged view and the pin, return fresh node ids to the
      allocator; the base was never touched.

    {!recover_docs} rebuilds stores from a checkpoint plus the intact WAL
    prefix. *)

type manager

type shared
(** A {e commit lane}: the commit mutex and WAL shared by every document of
    a catalog. Commits to different documents serialise through one lane, so
    a multi-document commit group is one critical section and one WAL frame;
    per-document state (plane, version chain, LSN counters) stays in
    each document's {!manager}. *)

val shared : ?wal:Wal.t -> unit -> shared
(** A fresh lane. A single-document store owns a private one. *)

val manager :
  ?wal:Wal.t ->
  ?next_txn:int ->
  ?doc_id:int ->
  ?shared:shared ->
  Schema_up.t ->
  manager
(** [next_txn] seeds the transaction-id (LSN) counter — recovery passes the
    last replayed id + 1 so ids stay monotone across restarts. Ids (and
    therefore epochs and page stamps) are {e per document}. [doc_id]
    (default 0) tags this document's WAL records. [shared] attaches the
    manager to an existing commit lane; when absent a private lane is
    created around [wal] ([wal] is ignored if [shared] is given). *)

val last_committed : manager -> int
(** Highest committed transaction id (0 if none) — the checkpoint LSN. *)

val store : manager -> Schema_up.t

val exclusively : shared -> (unit -> 'a) -> 'a
(** Run [f] with the lane's commit mutex held — excludes commits to {e
    every} document on the lane at once, for maintenance that must observe
    a quiescent base without blocking snapshot readers (a whole-catalog
    checkpoint needs a cut that is consistent across documents). Do not
    call from inside a transaction or another exclusive section. *)

exception Aborted of string
(** The transaction was rolled back (snapshot conflict at commit, validation
    failure, or an exception in the body of {!with_write}). *)

exception Conflict of { page : int; stamp : int; snapshot : int }
(** {!View.Conflict}: the transaction's first write to base page [page]
    found a {!Schema_up.Bulk} stamp newer than its snapshot
    ("first-committer-wins"), or ([page = -1]) a read found the store
    vacuumed since. A newer size delta on the page does not conflict. The
    losing transaction retries instead of ever waiting on a lock.
    {!with_write} converts this to {!Aborted} and counts it in
    [txn.conflicts]; explicit transactions should abort and retry. *)

(** {1 Read-only transactions} *)

val read : manager -> (View.t -> 'a) -> 'a
(** Pin the newest version and run [f] against a snapshot view of it. [f]
    holds no lock and observes exactly the store as of the pinned commit,
    regardless of concurrent commits. The pin is released when [f]
    returns. *)

(** {1 Write transactions} *)

type t

val begin_write : manager -> t
(** Pin the newest version ({!Version.hold}) — its epoch is the snapshot —
    and stage over it. Takes no lock; {!commit} or {!abort} unpins. *)

val view : t -> View.t
(** The staged view — pass it to {!Update} and to in-transaction queries
    (an [Engine.Make (View)] instance); it sees the transaction's own
    changes. *)

val commit : ?validate:(View.t -> (unit, string) result) -> t -> unit
(** Figure 8's commit sequence. [validate] runs before the commit mutex is
    taken; a failure aborts (raises {!Aborted}). Snapshot validation runs
    under it (see {!commit_group}). Committing or aborting twice raises
    [Invalid_argument]. *)

val commit_group : (t * (View.t -> (unit, string) result) option) list -> unit
(** Commit several transactions — at most one per document, all on the same
    commit lane — {e atomically}: all validations run first (one failure
    aborts every member and raises {!Aborted}). Then, under the commit
    mutex, every member's snapshot is validated: it fails when (a) a page of
    its write set ({!View.write_set}) carries a {!Schema_up.Bulk} stamp
    newer than its snapshot, (b) a pre-existing node it frees sits on a page
    with a newer {!Schema_up.Delta} stamp (a concurrent insert under that
    node), (c) the store was vacuumed since, or (d) a node it adds a size
    delta to was freed since. A failure aborts every member and raises
    [Aborted "snapshot conflict …"]. Otherwise one WAL frame carries every
    document's record, then each document applies under its own MVCC
    critical section. Recovery replays the frame all-or-nothing, so a crash
    can never surface half a group. [Invalid_argument] if two members share
    a document or span different lanes. An empty group is a no-op. *)

val abort : t -> unit

val with_write_group :
  (manager * (View.t -> (unit, string) result) option) list ->
  (View.t list -> 'a) ->
  'a
(** Begin one write transaction per member, run the body on their views (in
    member order) and {!commit_group} them; the group commits or aborts as a
    whole. On a snapshot conflict (re-raised as {!Aborted}) or any other
    exception from the body, every member is aborted. *)

val with_write :
  manager -> ?validate:(View.t -> (unit, string) result) -> (View.t -> 'a) -> 'a
(** {!with_write_group} of one. *)

val vacuum : ?fill:float -> manager -> unit
(** Compact the store (see {!Schema_up.compact}). Commits are excluded by
    the commit mutex and the call {e blocks until every pinned snapshot
    unpins} (compaction physically relocates tuples, which no pre-image
    overlay can describe). Staged transactions are not waited for: a read or
    first write of theirs that the vacuum overtook raises {!Conflict}, and
    any transaction whose snapshot predates the vacuum fails commit-time
    validation. Do not call while holding a read pin (self-deadlock). The
    WAL (if any) is invalidated by compaction — take a checkpoint right
    after (as {!Db.vacuum} does). *)

(** {1 Recovery} *)

val apply_wal_record : ?lsn:int -> Schema_up.t -> Wal.record -> unit
(** Redo one committed transaction onto the base store (idempotent with
    respect to pool writes; cell and table writes are absolute). [lsn] is the
    commit sequence number used to stamp modified pages (default: the
    record's transaction id — fine for recovery, where no transactions are
    in flight). *)

val recover_docs :
  wal_path:string ->
  store_of:(int -> Schema_up.t option) ->
  after:(int -> int) ->
  (int, int * int) Hashtbl.t
(** Replay a mixed multi-document log in one pass: each record is applied to
    [store_of doc] (skipped when [None] — the document was dropped after the
    checkpoint), honouring the per-document checkpoint LSN [after doc].
    Returns per touched document [(records redone, highest id seen)];
    transient state is rebuilt on every touched store. *)
