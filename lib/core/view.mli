(** Access views over the updateable schema.

    The structural update algorithms (Figure 7) and in-transaction query
    evaluation are written once, against a {!t}.

    A {e snapshot} view reads a pinned MVCC version ({!Version.t}) through
    the descriptor's frozen pageOffset, so evaluation holds no lock and
    observes exactly the store as of the pinned commit. While no commit or
    vacuum has begun since the version was installed ({!Version.is_current}),
    a read is a plain array read of the base, checked afterwards; a read
    that a commit overtook is redone through the version chain's pre-image
    overlays inside the store seqlock and counted in [mvcc.overtaken_reads].
    A scan reads a whole logical page per {!fold_runs} run the same way: it
    reads the cached column arrays and checks once after the run; a run a
    commit overtook is read again inside the seqlock from the chain's image
    of the page (or the base, when no commit since touched the page) and
    counted in [mvcc.overtaken_runs]. The [view.run] failpoint sits at the
    start of every run. Snapshot views reject every mutating operation with [Invalid_argument]:
    every change to the plane goes through a transaction
    ({!Txn.with_write}).

    A {e staged} view is a transaction's private world (Figure 8) and the
    only writable flavour: the transaction's pinned version plus private
    copy-on-write copies of the pages it modifies (§3.2). A page it has not
    written is read through the snapshot, exactly as a snapshot view reads
    it, so staged reads check no stamp and join no validation set. The first
    write that changes a base page copies the snapshot's image of the page's
    five columns, and every later read and write of that page uses the copy;
    pages it appends are staged privately too and referenced only from the
    view's private pageOffset table. At commit, each copied page is diffed
    against the current base and only the cells that differ are logged and
    applied. Ancestor [size] changes are kept as {e commutative deltas};
    attribute and node/pos changes are differential, and freed node ids
    return to the allocator only at commit; dictionary/pool appends pass
    through to the base (append-only, invisible until referenced) but are
    logged for the WAL.

    A staged view makes {e no} destructive change to base pages, so abort is
    "drop the view". Its conflict footprint is its write set ({!write_set}):
    the pages it copied and the owner pages of its attribute changes.
    Growing an ancestor through a size delta touches none of its pages — the
    paper's trick for not locking the root. *)

type pool = Ptext | Pcomment | Ppi_target | Ppi_data | Dqn | Dprop
(** Identifies a shared string container in WAL log entries. *)

type anchor = Start | After_phys of int
(** Where a staged page splice lands, expressed stably: at the logical start,
    or logically right after a given {e physical} page (physical ids never
    lose their relative logical order to a splice made elsewhere). *)

type splice = { anchor : anchor; pages : int list (* provisional phys ids *) }

type staged = {
  base_npages : int;  (** base page count at view creation *)
  pages : (int, int array array) Hashtbl.t;
      (** private pages by physical id, as {!Schema_up.capture_page}
          images: copies of changed base pages, and appended pages under
          their provisional ids [base_npages ..] *)
  mutable fresh_pages : int;  (** appended pages *)
  mutable pmap : Column.Pagemap.t;  (** private pageOffset (base snapshot + own splices) *)
  mutable splices : splice list;  (** reverse order; replayed at commit *)
  node_pos_w : (int, int) Hashtbl.t;
  size_deltas : (int, int) Hashtbl.t;  (** node id -> cumulative size delta *)
  mutable attr_adds : (int * int * int) array;  (** (node,qn,prop); node = null when cancelled *)
  mutable attr_adds_len : int;
  mutable attr_dels : int list;  (** tombstoned base rows *)
  mutable pool_log : (pool * int * string) list;  (** reverse; for the WAL *)
  mutable fresh_nodes : int list;  (** ids allocated from the shared allocator *)
  mutable freed_nodes : int list;  (** ids to release at commit *)
  mutable live_delta : int;
  base_attr_len : int;  (** the snapshot's attr-table length *)
}

exception Conflict of { page : int; stamp : int; snapshot : int }
(** A staged view cannot go on from its snapshot: its first write to base
    page [page] found a {!Schema_up.Bulk} stamp newer than the snapshot's
    epoch, or ([page = -1]) a read found the store vacuumed at LSN [stamp]
    since. Raised as {!Txn.Conflict}. *)

type t

val staged : Version.t -> t
(** A write transaction's view of a version it pins for the view's
    lifetime ({!Version.hold}). *)

val snapshot : Version.t -> t
(** Read-only view of a pinned version descriptor. Caches the frozen
    pageOffset and the base column arrays once, for the current-version
    fast path; a staged view does the same. *)

val staged_state : t -> staged option
(** [None] on a snapshot view. *)

val snapshot_version : t -> Version.t option
(** The pinned version descriptor of a snapshot view ([None] on a staged
    view, whose own changes no epoch names). Its {!Version.epoch}
    identifies the committed state the view reads — the key the result
    cache ({!Qcache}) is valid against. *)

val write_set : t -> int list
(** The base pages a staged view's commit validates: every page it copied,
    and the owner page of every staged attribute add or remove (the pages
    that commit bulk-stamps). Reads and size deltas add nothing.
    [Invalid_argument] on a snapshot view. *)

(** {1 The pre view (storage signature for in-view queries)} *)

include Storage_intf.S with type t := t

val node_count : t -> int
(** Number of live document nodes ([extent] minus unused slots). *)

val is_used : t -> int -> bool
(** False on an unused (deleted / never filled) slot. *)

val prev_used : t -> int -> int
(** Largest used position [<= pre], or [-1] when the prefix is all unused.
    Empty pages are skipped in O(1) via the free run anchored at the page's
    first slot; interior holes are stepped over slot by slot. *)

(** {1 Physical operations (used by the update algorithms)} *)

val page_size : t -> int

val page_bits : t -> int

val npages : t -> int
(** Including staged pages. *)

val capacity : t -> int

val read_cell : t -> Schema_up.col -> int -> int

val write_cell : t -> Schema_up.col -> int -> int -> unit
(** Writing a cell's current value copies nothing. The first write that
    changes a base page copies it from the snapshot, and raises {!Conflict}
    when a newer commit bulk-stamped the page; a newer size delta on it
    does not conflict. *)

val private_page : t -> int -> int array array
(** [private_page v phys]: the transaction's private image of physical page
    [phys] (columns indexed by {!Schema_up.col_index}), copied from the
    snapshot on first use under the same stamp check as {!write_cell}'s copy. The
    caller writes it in place, and must restore its free runs
    ({!Schema_up.recompute_free_runs}) and the node/pos entries of tuples
    it moves. *)

val pos_of_pre : t -> int -> int

val pre_of_pos : t -> int -> int

val splice_pages : t -> at_logical:int -> count:int -> int list
(** Fresh all-unused private pages spliced into logical order. Returns
    their provisional physical ids. *)

val node_pos_get : t -> int -> int

val node_pos_set : t -> int -> int -> unit

val fresh_node_id : t -> int

val free_node_id : t -> int -> unit

val add_size_delta : t -> node:int -> int -> unit
(** Commutative ancestor-size adjustment, accumulated until commit; own size
    reads see it. Copies no page and adds nothing to the write set. *)

val add_live : t -> int -> unit

(** {1 Dictionaries, pools, attributes} *)

val intern_qn : t -> Xml.Qname.t -> int

val intern_prop : t -> string -> int

val push_text : t -> string -> int

val push_comment : t -> string -> int

val push_pi : t -> target:string -> data:string -> int

val attr_add : t -> node:int -> qn:int -> prop:int -> unit

val attr_remove_node : t -> node:int -> unit
(** Tombstone every attribute of a node (subtree deletion). *)

val attr_remove_named : t -> node:int -> qn:int -> bool
(** Tombstone one named attribute; [false] when absent. *)
