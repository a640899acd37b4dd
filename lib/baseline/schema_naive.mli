(** The strawman the paper argues against (§2.2): {!Core.Schema_ro}'s table
    plus a {e materialised} pre column, with no logical pages.

    A structural insert must physically move every tuple after the insert
    point, rewrite their stored pre values, and rewrite the attribute table's
    owner references — O(N) work per update.  (In MonetDB this layout is not
    even expressible, because a void column can never be modified; this
    module plays the role of "pre stored in an ordinary RDBMS column".)

    Queries read the wrapped {!Core.Schema_ro} table through its own
    accessors, so they work identically; the point of the baseline is the
    update cost, which the shift-cost bench measures. *)

type t

val of_dom : Xml.Dom.t -> t

include Core.Storage_intf.S with type t := t

val insert : t -> parent_pre:int -> at_pre:int -> Xml.Dom.node list -> unit
(** Insert a forest so that its first node lands at position [at_pre]
    (which must lie inside the parent's region). O(document). *)

val delete : t -> pre:int -> unit
(** Remove the subtree, closing the gap. O(document). *)

val last_shifted : t -> int
(** Tuples physically moved (plus attribute references rewritten) by the most
    recent structural update — the measured O(N) cost. *)
