(** XUpdate (paper §2.1): the structural update language.

    Supported commands, in the [xupdate:] namespace prefix form used by the
    paper:
    {v
    <xupdate:modifications>
      <xupdate:remove        select="expr"/>
      <xupdate:insert-before select="expr"> content </xupdate:insert-before>
      <xupdate:insert-after  select="expr"> content </xupdate:insert-after>
      <xupdate:append select="expr" child="n"> content </xupdate:append>
      <xupdate:update        select="expr"> text </xupdate:update>
    </xupdate:modifications>
    v}

    [content] is a forest of literal XML plus the XUpdate constructors
    [<xupdate:element name="...">], [<xupdate:attribute name="...">],
    [<xupdate:text>], [<xupdate:comment>] and
    [<xupdate:processing-instruction name="...">].

    [remove] of an attribute selection ([.../@a]) removes attributes;
    [update] replaces an element's content with text, a text node's value, or
    an attribute's value. *)

type content_item = Node of Xml.Dom.node | Attr of Xml.Qname.t * string

type command =
  | Remove of Xpath.Xpath_ast.path
  | Insert_before of Xpath.Xpath_ast.path * content_item list
  | Insert_after of Xpath.Xpath_ast.path * content_item list
  | Append of Xpath.Xpath_ast.path * int option * content_item list
  | Update of Xpath.Xpath_ast.path * string
  | Rename of Xpath.Xpath_ast.path * Xml.Qname.t
      (** [<xupdate:rename select="..."> new-name </xupdate:rename>] —
          renames selected elements (a single [name]-cell write) or
          attributes. *)

exception Parse_error of string

val parse : string -> command list
(** Parse an [<xupdate:modifications>] document. Raises {!Parse_error} (or
    {!Xml.Xml_parser.Parse_error} for malformed XML). *)

val parse_command : Xml.Dom.node -> command
(** Parse a single command element. *)

exception Apply_error of string

val apply : View.t -> command list -> int
(** Execute commands in order against a transaction's staged view. Returns the
    number of nodes/attributes affected. Raises {!Apply_error} when a select
    yields an unusable target (e.g. inserting before the root). *)

val apply_string : View.t -> string -> int
(** [parse] + [apply]. *)
