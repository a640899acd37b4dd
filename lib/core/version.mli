(** MVCC version descriptors: snapshot-isolated reads over the in-place
    updated base store.

    The commit protocol of the paper (Figure 8) mutates the base store
    directly, so historical snapshots are kept as an {e undo chain}: right
    before commit [n+1] overwrites a page, node-pos entry or attribute row,
    it captures the pre-image into version [n]'s descriptor. A reader pinned
    at version [k] walks the chain from [k] towards the newest version and
    takes the first capture it meets — or the base value when no later
    commit touched the datum. Versions are refcounted; the unpinned oldest
    prefix of the chain is reclaimed on unpin.

    A store-wide seqlock makes the scheme safe across domains without any
    reader-side lock: the commit critical section holds the sequence number
    odd while it captures and applies, and {!stable} retries reads that
    overlap it. A version that no commit has overtaken ({!is_current}) needs
    neither: its readers read the base and check afterwards.

    Registers the [mvcc.*] instruments: [mvcc.live_versions],
    [mvcc.pinned_readers], [mvcc.versions_reclaimed], [mvcc.pins],
    [mvcc.captured_pages], [mvcc.commit_cs_latency]. *)

type t
(** An immutable version descriptor (epoch, frozen pageOffset, append-only
    high-water marks, pre-image overlays). *)

type store
(** The version chain of one base store. *)

val create : epoch:int -> Schema_up.t -> store
(** A fresh chain holding a single descriptor of the store's current
    state. *)

(** {1 Descriptor accessors} *)

val newest : store -> t

val epoch : t -> int

val base : t -> Schema_up.t

val pmap : t -> Column.Pagemap.t
(** The frozen pageOffset as of the descriptor's epoch ({!Column.Pagemap.freeze}). *)

val npages : t -> int

val live : t -> int
(** Live-node count as of the epoch. *)

val node_hwm : t -> int

val attr_hwm : t -> int

val vacuumed : t -> int
(** The LSN of the vacuum that dropped this version from the chain, or 0.
    Only a writer's version ({!hold}) can be vacuumed while in use. *)

(** {1 Pinning} *)

val pin : store -> t
(** Pin the newest version; the commit protocol guarantees it stays
    readable until {!unpin}. *)

val unpin : store -> t -> unit
(** Drop one pin and reclaim any now-unreachable chain prefix. *)

val hold : store -> t
(** A write transaction's pin of the newest version: it holds back
    reclamation like {!pin}, but {!quiesce} does not wait for it (a vacuum
    may run on the writer's own thread). A vacuum marks the version instead
    ({!vacuumed}). *)

val release : store -> t -> unit
(** Drop a {!hold}. *)

(** {1 Seqlock} *)

val stable : t -> (unit -> 'a) -> 'a
(** [stable v f] runs [f] until it executes entirely outside a commit
    critical section, so [f]'s base-store reads are never torn. [f] must be
    pure reads (it may retry) and must not itself wait on commit progress.
    A read that overlaps a commit's write section waits it out, so its
    latency is bounded by that section's ([mvcc.commit_cs_latency], the
    [mvcc.commit_cs_ms] of the load benchmark). Snapshot readers and
    staged writers share this path for every read a commit overtook. *)

val is_current : t -> bool
(** [true] while no commit or vacuum has begun since the version was
    installed: the base store then holds exactly the version's state, so a
    base read followed by a [true] check needs neither a chain walk nor a
    retry. Reads made before a [false] check may be torn or stale and must
    be redone through {!stable}. *)

(** {1 Commit protocol}

    Callers serialise commits externally (the transaction manager's commit
    mutex). The sequence is: [commit_begin]; capture pre-images of
    everything the commit overwrites; apply the commit to the base;
    [commit_end]. *)

val commit_begin : store -> float
(** Open the seqlock write section; returns the start time for the
    [mvcc.commit_cs_latency] histogram. *)

val capture_page : store -> int -> unit
(** Capture a physical page's five-column pre-image into the newest
    descriptor (idempotent; pages beyond the descriptor's extent are
    ignored — fresh pages need no pre-image). *)

val capture_node : store -> int -> unit
(** Capture a node-pos entry's pre-image (idempotent, hwm-filtered). *)

val capture_attr : store -> int -> unit
(** Capture an attribute row's pre-image (idempotent, hwm-filtered). *)

val commit_end : store -> epoch:int -> float -> unit
(** Install the post-commit descriptor as newest, close the seqlock write
    section and record the critical-section latency. *)

(** {1 Snapshot reads}

    Chain-walking resolvers; callers wrap them (together with any base
    fallback reads) in {!stable}. *)

val find_page : t -> int -> int array array option
(** Pre-image of a physical page as of the pinned epoch, if any commit
    since has overwritten it. Column order matches {!Schema_up.col}. *)

val node_pos : t -> int -> int
(** node id -> pos as of the epoch ({!Column.Varray.null} when freed or not
    yet allocated). *)

val attr_row : t -> int -> int * int * int

val attr_entries : t -> int -> (int * int * int) list
(** [(row, qn, prop)] attribute rows of a node id as of the epoch, in row
    order. *)

val base_attr_entries : t -> int -> (int * int * int) list
(** The rows of {!attr_entries} still live in the base (those allocated
    before the epoch), in row order — all of them while {!is_current} holds,
    since only a later commit can have tombstoned one. *)

(** {1 Quiescence} *)

val quiesce : store -> (unit -> int) -> unit
(** [quiesce s f] waits for every pinned snapshot to unpin (new pins are
    blocked meanwhile), runs [f] inside a seqlock write section — [f]
    typically compacts the base and returns its new epoch — then resets the
    chain to a single fresh descriptor of the rebuilt store. *)
