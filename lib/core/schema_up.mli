(** The updateable storage schema (paper Figures 4, 6).

    The node table is [pos/size/level/kind/name/node] in {e physical} page
    order; [pos] is a void column (it is the array index — never stored).
    The pre/size/level view the query engine sees reads this table through
    the {!Column.Pagemap.t} permutation, so [pre] too is virtual: splicing a
    freshly appended page into logical order renumbers every following node
    for free.

    Conventions, following Figure 4:
    - an {e unused} slot has [level = NULL] ({!Column.Varray.null}) and its
      [size] holds the number of directly following consecutive unused slots
      {e within the same logical page} (page-local so that page splices can
      never make a run overshoot into live data);
    - [size] of a used node is its true descendant count (structural updates
      never change [level], and change [size] only for ancestors of the
      update point, via commutative deltas);
    - every node carries an immutable [node] id; the [node/pos] table maps
      ids back to positions ([NULL] = freed, recyclable);
    - attributes reference their owner's {e node id}, never a position, so
      attribute storage needs no maintenance when positions shift;
    - names, attribute values and text are not in the node table: the
      [name] cell and the attribute rows hold ids into the {!Values}
      tables, the same tables as the read-only schema's (Figure 6 changes
      the node table only), shared by every transaction. *)

type t

type col = Csize | Clevel | Ckind | Cname | Cnode
(** The five materialised columns of the node table. *)

val col_index : col -> int
(** A column's index in page images ({!capture_page}, {!blank_page}) and in
    WAL cell triples: its position in {!col}'s declaration order. *)

val col_of_index : int -> col
(** Inverse of {!col_index}; [Invalid_argument] outside [0 .. 4]. *)

val default_page_bits : int
(** 12 — 4096 tuples per logical page (the paper uses the 64 KiB VM-mapping
    granularity; tests shrink it to stress overflow paths). *)

val create : ?page_bits:int -> unit -> t
(** An empty store (no pages). *)

val of_dom : ?page_bits:int -> ?fill:float -> Xml.Dom.t -> t
(** Shred a document, filling each logical page to the [fill] fraction
    (default [0.8], i.e. the paper's "about 20% of the logical pages kept
    unused") and padding the rest of each page with unused slots. *)

include Storage_intf.S with type t := t

val node_count : t -> int
(** Number of live document nodes ([extent] minus unused slots). *)

(** {1 Physical layer} *)

val page_bits : t -> int

val page_size : t -> int

val npages : t -> int

val capacity : t -> int
(** Physical slots = [npages * page_size]; equals [extent]. *)

val pagemap : t -> Column.Pagemap.t
(** The live pageOffset table. Callers must treat it as read-only;
    {!set_pagemap} installs a replacement at commit. *)

val set_pagemap : t -> Column.Pagemap.t -> unit
(** Install a new pageOffset table ("make a new pageOffset table" in the
    commit protocol, Figure 8). The replacement must cover exactly the same
    physical pages. *)

val pos_of_pre : t -> int -> int
(** O(1) swizzle through the pageOffset table. *)

val pre_of_pos : t -> int -> int

val get_cell : t -> col -> int -> int
(** Read a column cell by {e physical} position. *)

val column_data : t -> col -> int array
(** A column's backing array, valid for positions below {!capacity}. Its
    identity changes when the store grows, so a cached copy is only sound
    while no commit has begun since — the snapshot read path re-validates
    every read with {!Version.is_current}. *)

val set_cell : t -> col -> int -> int -> unit

val grow_pages : t -> count:int -> int list
(** Physically append fresh all-unused pages {e without} touching the
    pageOffset table (they are placed at the logical end) — the primitive a
    transaction uses to stage private pages that other transactions cannot
    see until its own pageOffset is installed. *)

type stamp =
  | Bulk  (** cell writes, fresh pages, attribute owners, vacuum *)
  | Delta  (** commutative ancestor-size deltas only *)
(** Every physical page carries two commit stamps. A newer {!Bulk} stamp on
    a page in a transaction's write set fails it, at its first write to the
    page or at commit; a newer {!Delta} stamp only does under a node the
    committer frees: elsewhere a size delta commutes with the committer's
    own writes (see {!Txn.commit_group}). *)

val page_stamp : t -> stamp -> int -> int
(** [page_stamp t kind phys]: LSN of the last commit that modified the page
    in that way (0 = since load). *)

val stamp_page : t -> stamp -> int -> int -> unit
(** [stamp_page t kind phys lsn] — called by the commit apply path, inside
    the commit critical section, {e before} the page's data changes. *)

val capture_page : t -> int -> int array array
(** [capture_page t phys] copies one physical page of all five columns — a
    {e page image}, columns indexed by {!col_index}, each of length
    [page_size]. A staged transaction takes this copy on its first write to
    a base page; a commit takes it for every page it is about to overwrite,
    so pinned MVCC snapshots can keep reading the pre-image (see
    {!Version}). *)

val blank_page : int -> int array array
(** [blank_page page_size]: the image of a fresh page — every slot unused,
    free runs covering the page. *)

val recompute_free_runs : int array array -> unit
(** Rewrite the free-run lengths (the [size] of unused slots) of a page
    image from its [level] column. *)


(** {1 Node identity (node/pos table)} *)

val node_ids : t -> int
(** Extent of the node/pos table (highest id + 1, including freed ids). *)

val node_pos_get : t -> int -> int
(** Current pos of a node id, or {!Column.Varray.null} when freed. *)

val node_pos_set : t -> int -> int -> unit

val fresh_node_id : t -> int
(** Recycle a freed id if one exists, else extend the node/pos table —
    the paper finds NULL [pos] entries to reuse before appending. *)

val free_node_id : t -> int -> unit

val ensure_node_ids : t -> int -> unit
(** Extend the node/pos table to cover ids below the bound (recovery replays
    allocations that the crashed process made through the allocator). *)

val node_at : t -> pre:int -> int
(** Node id stored at a used pre position. *)

val pre_of_node : t -> int -> int option
(** The paper's swizzle: node → pos (node/pos table) → pre (pageOffset). *)

(** {1 Value tables} *)

val values : t -> Values.t
(** The value tables. Staging transactions append to them directly; a
    fresh id is unreachable until a commit writes a cell that references
    it. *)

(** {1 Attribute table (keyed by owner node id)} *)

val attr_add : t -> node:int -> qn:int -> prop:int -> int
(** Append an attribute row; returns the row id. *)

val attr_tombstone : t -> row:int -> unit
(** Delete one attribute row (sets its owner to NULL). *)

val attr_rows_of_node : t -> int -> int list
(** Live attribute rows owned by a node id, in insertion order. *)

val attr_row : t -> int -> int * int * int
(** [(node, qn, prop)] of a row; node is NULL for tombstones. *)

val attr_prop_below : t -> int -> below:int -> int -> int
(** [attr_prop_below t node ~below qid] is the prop id of the first live
    row of [node], in stored order, that lies below row [below] and carries
    qname [qid], or NULL: the point probe behind [attribute_id], one
    critical section that builds no list. *)

val attr_live_count : t -> int

val attr_table_len : t -> int
(** Total rows including tombstones — the staged-view snapshot boundary. *)

(** {1 Bookkeeping} *)

val add_live_nodes : t -> int -> unit
(** Adjust the live-node counter (used by insert/delete). *)

val compact : ?fill:float -> t -> unit
(** Rebuild the physical layout: used tuples are re-packed in document order
    into fresh pages at the [fill] factor (default 0.8), the pageOffset
    becomes the identity again, and freed/slack slots are re-pooled.
    Node ids are {e preserved} (clients' handles stay valid); tombstoned
    attribute rows are dropped. O(N). Callers must hold the store exclusively
    ({!Txn.vacuum} holds the commit mutex and waits for every pinned
    snapshot to unpin). *)

val check_integrity : t -> (unit, string) result
(** Verify every structural invariant (pagemap permutation, free runs,
    node/pos agreement, level/size tree-consistency, counters, attribute
    index). Test-suite workhorse; O(N). *)

(** {1 Persistence (checkpoint / recovery)} *)

val save : t -> Column.Persist.Enc.t -> unit
(** Serialise the full store into an encoder (checkpoint payload). *)

val load : Column.Persist.Dec.t -> t
(** Rebuild a store from a checkpoint payload; transient state (attribute
    index, free-node list) is reconstructed. Raises
    {!Column.Persist.Dec.Corrupt} on malformed input. *)

val rebuild_transients : t -> unit
(** Recompute the free-node list and live counter from the base tables —
    called once after WAL replay. *)

val stats : t -> Storage_intf.stats
(** [slots] counts unused slots; [attrs] live attribute rows. *)
