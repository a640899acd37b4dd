(** Write-ahead log (paper §3.2, Figure 8).

    One checksummed frame per commit group, written (and flushed) while the
    commit lane's mutex is held — "writing the WAL is the crucial stage in
    transaction commit, it consists of a single I/O".  A record is a
    self-contained {e redo} description of the commit:

    - the cells of existing pages that the commit changes,
    - the full contents of the freshly appended pages,
    - the new logical page order (the paper's "shifts introduced in the
      pageOffset table"),
    - node/pos changes and freed node ids,
    - ancestor size {e deltas} (not absolute values — deltas keep replay
      commutative with the same argument the live protocol uses),
    - attribute adds/deletes and dictionary/pool appends at pinned ids.

    Recovery = load the last checkpoint, then {!replay} every intact frame;
    a torn or corrupt tail frame ends replay (see {!Column.Persist}). *)

type record = {
  doc : int;  (** catalog document id the record belongs to *)
  txn : int;
  cells : (int * int * int) list;  (** (pos, col-index, value) on old pages *)
  pages : int array array list;  (** appended pages, physical order *)
  page_order : int array;  (** complete logical→physical order after commit *)
  node_pos : (int * int) list;
  freed_nodes : int list;
  size_deltas : (int * int) list;  (** (node id, delta) *)
  attr_adds : (int * int * int) list;
  attr_dels : int list;
  pool : (View.pool * int * string) list;
  live_delta : int;
}

type t

val open_log : string -> t
(** Open (create or append to) a WAL file. *)

val append_group : t -> record list -> unit
(** Write one {e commit group} — the records of one atomic commit, one per
    touched document — as a single checksummed frame, and flush. The frame
    checksum covers the whole group, so recovery applies a multi-document
    commit all-or-nothing: a torn tail drops every record of the group.
    An empty group writes nothing. *)

val close : t -> unit

val rotate : t -> unit
(** Truncate the log to empty and keep logging to the same path. Only safe
    once a checkpoint covering every logged commit is durable, and with
    appends excluded — {!Db.checkpoint}[ ~truncate_wal:true] wraps both
    conditions. *)

val replay : string -> (record -> unit) -> int
(** Feed every intact record of a WAL file, in order, to the callback —
    group frames are flattened in commit order, so a mixed multi-document
    log replays records exactly as they were committed. Returns the number
    of records applied. A missing file replays zero. *)

val encode_group : record list -> string
(** Frame payload of a whole commit group. *)

val decode_group : string -> record list
(** Raises {!Column.Persist.Dec.Corrupt} on malformed payloads. *)
