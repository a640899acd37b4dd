(** The original read-only storage schema (paper Figure 5).

    One tuple per document node in a table whose void key {e is} the pre
    number; [size]/[level] complete the pre/post-plane encoding
    ([post = pre + size - level]).  Attributes reference their owner's pre
    directly.  Names, attribute values and text live in the {!Values}
    tables, the same tables the updateable schema keeps; shredding encodes
    every item through {!Values.encode}.  This schema delivers the fastest
    possible positional access, and is immutable: any structural change
    would shift pre values, which a void column cannot represent — that is
    the paper's problem statement. *)

type t = private {
  size : Column.Varray.t;
  level : Column.Varray.t;
  kind : Column.Varray.t;  (** {!Kind.to_int} codes *)
  name : Column.Varray.t;
      (** qname id of an element; pool ref of a text, comment or PI *)
  values : Values.t;
  attr_owner : Column.Varray.t;
      (** the owner's pre, sorted: shredding emits in document order *)
  attr_qn : Column.Varray.t;
  attr_prop : Column.Varray.t;
}
(** The table, one [Varray] per column. The representation is visible so
    that a schema built on this table (the shifting strawman
    [Baseline.Schema_naive]) can move its columns, but only {!of_dom}
    builds one. *)

val of_dom : Xml.Dom.t -> t
(** Shred a document. *)

val attr_range : t -> int -> int * int
(** [attr_range t pre] is the rows [\[start, stop)] of the attribute table
    that [pre] owns; [start] is where rows of [pre] belong if it owns
    none. *)

include Storage_intf.S with type t := t

(** {1 Introspection} *)

val stats : t -> Storage_intf.stats
(** [slots = nodes] here: the table has no unused slots. *)

val attr_count : t -> int
