(** The original read-only storage schema (paper Figure 5).

    One tuple per document node in a table whose void key {e is} the pre
    number; [size]/[level] complete the pre/post-plane encoding
    ([post = pre + size - level]).  Attributes reference their owner's pre
    directly.  This schema delivers the fastest possible positional access,
    and is immutable: any structural change would shift pre values, which a
    void column cannot represent — that is the paper's problem statement. *)

type t = private {
  size : Column.Varray.t;
  level : Column.Varray.t;
  kind : Column.Varray.t;  (** {!Kind.to_int} codes *)
  name : Column.Varray.t;
      (** qname id of an element; pool ref of a text, comment or PI *)
  qn : Column.Dict.t;
  props : Column.Dict.t;
  text_pool : Column.Strpool.t;
  comment_pool : Column.Strpool.t;
  pi_target_pool : Column.Strpool.t;
  pi_data_pool : Column.Strpool.t;
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

val encode : t -> Shred.payload -> attr:(qn:int -> prop:int -> unit) -> Kind.t * int
(** [encode t payload ~attr] interns one shredded item's strings into [t]'s
    dictionaries and pools and returns its kind and [name] cell; [attr] gets
    the qname id and value id of each attribute of an element, in order.
    The one item encoding: {!of_dom} and every insert into this table use
    it. *)

val attr_range : t -> int -> int * int
(** [attr_range t pre] is the rows [\[start, stop)] of the attribute table
    that [pre] owns; [start] is where rows of [pre] belong if it owns
    none. *)

include Storage_intf.S with type t := t

(** {1 Introspection} *)

type stats = {
  slots : int;  (** tuples in the node table (= live nodes here) *)
  nodes : int;  (** live document nodes *)
  attrs : int;
  distinct_qnames : int;
  distinct_props : int;
  approx_bytes : int;  (** storage footprint estimate, 8 bytes per int cell *)
}

val stats : t -> stats

val attr_count : t -> int
