(** Logical-page order over physically-appended pages — the [pageOffset]
    table of the paper (Figure 6).

    Physical pages of the [pos/size/level] table are only ever {e appended};
    this permutation records where each physical page sits in {e logical}
    (document) order.  The pre/size/level "view" the query engine sees is
    the table read through this permutation.  In MonetDB the view is realised
    by remapping virtual-memory pages; here it is an O(1) arithmetic swizzle:

    {[ pos = log_to_phys.(pre lsr bits) lsl bits lor (pre land mask)
       pre = phys_to_log.(pos lsr bits) lsl bits lor (pos land mask) ]}

    Because [pre] is never materialised (it is a void column — a position in
    the view), splicing a freshly-appended page into the middle of the
    logical order renumbers every following node at zero physical cost: only
    the O(#pages) permutation entries after the splice point change. *)

type t

val create : bits:int -> t
(** Empty map with logical pages of [2^bits] tuples. [bits] must be in
    [1, 30]. *)

val bits : t -> int

val npages : t -> int
(** Number of pages (physical = logical; the map is a permutation). *)

val capacity : t -> int
(** Total tuple slots, [npages * page_size]. *)

val append_page : t -> int
(** Allocate the next physical page and place it at the {e end} of logical
    order; returns its physical page id. *)

val splice : t -> at:int -> count:int -> int list
(** [splice m ~at ~count] allocates [count] fresh physical pages (appended
    physically) and inserts them into logical order starting at logical page
    index [at], shifting the logical index of every later page.  Returns the
    new physical page ids in logical order. *)

val phys_of_logical : t -> int -> int
(** Physical page id at a logical page index. *)

val logical_of_phys : t -> int -> int

val pre_to_pos : t -> int -> int
(** Swizzle a view position (pre) to a physical position (pos). O(1). *)

val pos_to_pre : t -> int -> int
(** Inverse swizzle. O(1). *)

val unsafe_l2p : t -> int array
(** Backing array of the logical→physical map, valid for indices
    [< npages]. For the storage layer's hot swizzle loops — MonetDB gets this
    lookup for free from the MMU; we at least skip the bounds check. The
    array identity is invalidated by {!append_page}/{!splice}. *)

val unsafe_p2l : t -> int array

val is_identity : t -> bool
(** True when logical and physical order coincide (freshly shredded store). *)

val copy : t -> t
(** Private copy — a transaction's private pageOffset table. *)

val freeze : t -> t
(** O(1) copy-on-write snapshot. The returned handle aliases the live
    permutation but is guaranteed never to observe a later mutation: the
    first {!append_page}/{!splice} through {e either} handle clones the
    backing arrays first. Used by MVCC version descriptors, which must pin
    the pageOffset as of one commit without paying an O(#pages) copy on
    every commit. *)

val to_array : t -> int array
(** The logical→physical permutation, for WAL records / checkpoints. *)

val of_array : bits:int -> int array -> t
(** Rebuild from a permutation. Raises [Invalid_argument] if the array is
    not a permutation of [0..n-1]. *)
