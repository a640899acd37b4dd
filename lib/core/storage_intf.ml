(** The storage access signature shared by both schemas.

    The staircase join, axis evaluation, query engine and node serialiser are
    functors over this signature, so a read-only-vs-updateable measurement
    (the paper's Figure 9) compares storage representations only — the query
    code is byte-identical.

    All accessors address nodes by [pre]: the position in the logically
    (document-) ordered view.  For {!Schema_ro} that view {e is} the table;
    for {!Schema_up} every access swizzles [pre] to a physical [pos] through
    the pageOffset permutation, and the view may contain {e unused} slots
    that [is_used]/[next_used] let traversals skip in O(1) per free run. *)

module type S = sig
  type t

  val extent : t -> int
  (** Number of slots in the pre view, {e including} unused slots.  Valid
      pre values are [0 .. extent - 1]. *)

  val node_count : t -> int
  (** Number of live document nodes ([extent] minus unused slots). *)

  val is_used : t -> int -> bool
  (** False on an unused (deleted / never filled) slot. *)

  val next_used : t -> int -> int
  (** [next_used t pre] is the smallest used position [>= pre], or
      [extent t] when the suffix is all unused.  O(1) per free run thanks to
      the run-length convention on unused [size] cells. *)

  val prev_used : t -> int -> int
  (** Largest used position [<= pre], or [-1] when the prefix is all unused.
      Empty pages are skipped in O(1) via the free run anchored at the page's
      first slot; interior holes are stepped over slot-by-slot. *)

  val size : t -> int -> int
  (** Subtree size (number of descendants) of a {e used} node. *)

  val level : t -> int -> int
  (** Depth of a used node; the root element has level 0. *)

  val kind : t -> int -> Kind.t

  val name_id : t -> int -> int
  (** Interned qname id of an element node (meaningless for other kinds). *)

  val qname : t -> int -> Xml.Qname.t

  val content : t -> int -> string
  (** Text of a text node, body of a comment, data of a PI. *)

  val pi_target : t -> int -> string

  val qn_id : t -> Xml.Qname.t -> int option
  (** Dictionary lookup: the id a qname is interned under, if any — lets a
      name test compare integers instead of strings. *)

  val attributes : t -> int -> (Xml.Qname.t * string) list
  (** Attributes of an element, in stored order. *)

  val attribute : t -> int -> Xml.Qname.t -> string option

  val attribute_id : t -> int -> int -> string option
  (** [attribute_id t pre id] is {!attribute} for the qname interned under
      [id] (see {!qn_id}): an attribute step resolves its name once and
      then reads each candidate's attribute by id. *)

  val root_pre : t -> int
  (** Pre of the document's root element. *)
end
