(** The transaction protocol of Figure 8: multi-version strict two-phase
    locking with write-ahead logging.

    - Read-only work pins an MVCC version descriptor ({!Version}) and
      evaluates against that immutable snapshot — {e no} lock is held
      during evaluation, so long scans never delay commits and commit
      bursts never starve readers.
    - A write transaction stages everything in a {!View.t} (copy-on-write
      differential lists, privately staged pages, a private pageOffset), and
      takes page locks incrementally — read locks while navigating, write
      locks on pages it rewrites.  Ancestor size changes travel as
      commutative deltas and take {e no} locks, so the root is never a
      bottleneck.
    - Commit: optional validation, then the manager's commit mutex, one WAL
      frame, a short seqlock critical section that captures pre-images for
      pinned snapshots and carries the differential lists through to the
      base, install the new pageOffset table and version descriptor,
      release.
    - Abort (or a {!Lock.Would_deadlock} timeout): drop the staged view,
      return fresh node ids to the allocator; the base was never touched.

    {!recover_docs} rebuilds stores from a checkpoint plus the intact WAL
    prefix. *)

type manager

type shared
(** A {e commit lane}: the commit mutex and WAL shared by every document of
    a catalog. Commits to different documents serialise through one lane, so
    a multi-document commit group is one critical section and one WAL frame;
    per-document state (plane, locks, version chain, LSN counters) stays in
    each document's {!manager}. *)

val shared : ?wal:Wal.t -> unit -> shared
(** A fresh lane. A single-document store owns a private one. *)

val manager :
  ?wal:Wal.t ->
  ?lock_timeout_s:float ->
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

val lock_table : manager -> Lock.t

val wal : manager -> Wal.t option

val lane : manager -> shared
(** The commit lane this manager commits through. *)

val doc_id : manager -> int

val versions : manager -> Version.store
(** The MVCC version chain ([mvcc.*] metrics, pin/unpin bookkeeping). *)

val exclusive : manager -> (View.t -> 'a) -> 'a
(** Run [f] on a direct view with commits excluded (the commit mutex is
    held) — for maintenance that must observe a quiescent base without
    blocking snapshot readers, e.g. writing a checkpoint. Do not call from
    inside a transaction or another exclusive section. *)

val exclusively : shared -> (unit -> 'a) -> 'a
(** Run [f] with the lane's commit mutex held — excludes commits to {e
    every} document on the lane at once (a whole-catalog checkpoint needs a
    cut that is consistent across documents). Same nesting caveats as
    {!exclusive}. *)

exception Aborted of string
(** The transaction was rolled back (deadlock timeout, validation failure,
    or an exception in the body of {!with_write}). *)

exception Conflict of { page : int; stamp : int; snapshot : int }
(** Snapshot validation failed: the transaction touched a base page modified
    by a commit newer than its snapshot ("first-committer-wins"). Size deltas
    count as modifications here — the losing transaction retries instead of
    ever waiting on an ancestor lock. {!with_write} converts this to
    {!Aborted}; explicit transactions should abort and retry. *)

(** {1 Read-only transactions} *)

val read : manager -> (View.t -> 'a) -> 'a
(** Pin the newest version and run [f] against a snapshot view of it. [f]
    holds no lock and observes exactly the store as of the pinned commit,
    regardless of concurrent commits. The pin is released when [f]
    returns. *)

(** {1 Write transactions} *)

type t

val begin_write : manager -> t

val id : t -> int

val view : t -> View.t
(** The staged view — pass it to {!Update} and to in-transaction queries
    (an [Engine.Make (View)] instance); it sees the transaction's own
    changes. *)

val commit : ?validate:(View.t -> (unit, string) result) -> t -> unit
(** Figure 8's commit sequence. [validate] runs before the commit mutex is
    taken; a failure aborts (raises {!Aborted}). Committing or aborting
    twice raises [Invalid_argument]. *)

val commit_group : (t * (View.t -> (unit, string) result) option) list -> unit
(** Commit several transactions — at most one per document, all on the same
    commit lane — {e atomically}: all validations run first (one failure
    aborts every member and raises {!Aborted}), then one WAL frame carries
    every document's record, then each document applies under its own MVCC
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
    whole. On deadlock timeout or snapshot conflict (re-raised as {!Aborted})
    or any other exception from the body, every member is aborted. *)

val with_write :
  manager -> ?validate:(View.t -> (unit, string) result) -> (View.t -> 'a) -> 'a
(** {!with_write_group} of one. *)

val vacuum : ?fill:float -> manager -> unit
(** Compact the store (see {!Schema_up.compact}). Commits are excluded by
    the commit mutex and the call {e blocks until every pinned snapshot
    unpins} (compaction physically relocates tuples, which no pre-image
    overlay can describe); every physical page is then stamped with a fresh
    LSN so in-flight transactions conflict-and-retry rather than observe
    moved tuples. Do not call while holding a pin (self-deadlock). The WAL
    (if any) is invalidated by compaction — take a checkpoint right after
    (as {!Db.vacuum} does). *)

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
