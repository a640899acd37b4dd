(** Document shredding: one pre-order pass that turns a {!Xml.Dom.t} into the
    node sequence both storage schemas load.

    Each item carries the paper's [size] (number of descendants) and [level]
    (depth, root = 0) together with the node's shallow payload. Attributes
    travel with their owner element. *)

type payload =
  | El of Xml.Qname.t * (Xml.Qname.t * string) list  (** name, attributes *)
  | Tx of string
  | Cm of string
  | Pr of string * string  (** PI target, data *)

type item = { size : int; level : int; payload : payload }

val sequence : Xml.Dom.t -> item array
(** The document's nodes in document (pre) order. [sequence d |> Array.length
    = Dom.node_count d]; item [0] is the root element with
    [size = node_count - 1] and [level = 0]. *)

val sequence_forest : Xml.Dom.node list -> item array
(** Shred a forest (e.g. the content of an XUpdate insert): levels are
    relative, each forest root at level 0. *)
