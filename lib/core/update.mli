(** Structural and value updates on the updateable schema (paper Figure 7).

    All operations work on a transaction's staged {!View.t}; direct and
    snapshot views are read-only and reject them.

    Insert placement follows the paper, on the transaction's private copy
    of the page holding the insert point:
    - if enough free slots follow the insert point in that page, the new
      tuples fill the shortest window after the point that holds as many
      free slots; only the used tuples inside that window move, and only
      they (and the new nodes) get node/pos entries. No other page, and no
      tuple before the point or after the window, is touched (Figure 7a);
    - if the page has enough free slots but not after the point, the page
      is compacted around the new tuples (still no new page);
    - otherwise the new tuples and the page's old tail fill the page's tail
      slots, and the rest goes to freshly {e appended} pages, spliced into
      logical order through the pageOffset table; every following pre
      number shifts automatically because pre is a virtual column — zero
      physical cost (Figure 7b).

    Deletes never shift anything: the subtree's slots become unused (level
    NULL), extending the page-local free runs; the node ids are freed and the
    attribute rows tombstoned.

    Ancestor [size] maintenance always goes through
    {!View.add_size_delta} — the commutative operation that lets concurrent
    transactions share ancestors (including the root) without locking them. *)

type insert_point =
  | First_child of int  (** parent pre *)
  | Last_child of int  (** parent pre *)
  | Nth_child of int * int  (** parent pre, 1-based position among children *)
  | Before of int  (** sibling pre *)
  | After of int  (** sibling pre *)

exception Update_error of string

val insert :
  ?size_chain:int list -> View.t -> insert_point -> Xml.Dom.node list -> unit
(** Insert a forest at the given point. Raises {!Update_error} when the
    point is invalid (e.g. [Before] the root, children under a non-element,
    [Nth_child] out of range).

    [size_chain] optionally names the nodes whose [size] grows — the parent
    and all its ancestors, as immutable node ids. Callers that navigated to
    the target already know this chain (the XUpdate evaluator, clients
    holding node handles); supplying it skips the ancestor search, whose
    sibling hops otherwise read pages of preceding subtrees — which matters
    to concurrent writers (see the concurrency bench). When omitted, the
    chain is computed with a top-down staircase descend. *)

val delete : View.t -> pre:int -> unit
(** Delete the subtree rooted at [pre]. Deleting the root raises
    {!Update_error}. *)

(** {1 Value updates (paper §2.1: these map trivially onto the tables)} *)

val set_text : View.t -> pre:int -> string -> unit
(** Replace the content of a text, comment or PI node. *)

val rename_element : View.t -> pre:int -> Xml.Qname.t -> unit
(** Rename an element: one cell write in the [name] column ([size], [level]
    and the node id are untouched — renames are the cheapest update). *)

val set_attribute : View.t -> pre:int -> Xml.Qname.t -> string -> unit
(** Add or replace an attribute of an element. *)

val remove_attribute : View.t -> pre:int -> Xml.Qname.t -> bool
(** Remove an attribute; [false] when it was absent. *)

(** {1 Statistics} *)

type cost = {
  mutable moved_tuples : int;  (** existing tuples whose position changed *)
  mutable new_pages : int;  (** pages appended+spliced by overflow inserts *)
  mutable blanked_tuples : int;  (** tuples turned unused by deletes *)
}

val costs : cost
(** Global counters, reset with {!reset_costs} — the bench harness uses them
    to demonstrate the O(update volume) bound. *)

val reset_costs : unit -> unit
