(** The value tables of both storage schemas (paper Figures 5 and 6).

    The node table's [name] cell means what its [kind] says: an element's
    cell is an id in the qualified-name dictionary, a text or comment node's
    an index into the text or comment pool, and a PI's an index shared by
    the PI-target and PI-data pools. Attribute rows hold a qualified-name id
    and an id in the attribute-value dictionary. The updateable schema
    changes the node table, not these tables, so both schemas keep one
    {!t} and go through it for every value they write or read.

    Every table is append-only. Ids never change once assigned, so a reader
    may decode any id its snapshot references without a lock. Interning,
    appending and the dictionary probe {!qn_id} run under the tables' own
    mutex, so that staging transactions on several domains can append while
    snapshot readers probe. *)

type pool = Ptext | Pcomment | Ppi_target | Ppi_data | Dqn | Dprop
(** One of the six tables: the four pools and the two dictionaries. Names
    a value append in the WAL. *)

type t

val create : unit -> t

val encode :
  t ->
  ?log:(pool -> int -> string -> unit) ->
  Shred.payload ->
  attr:(qn:int -> prop:int -> unit) ->
  Kind.t * int
(** [encode t payload ~attr] interns one shredded item's strings and
    returns its kind and [name] cell; [attr] gets the qname id and value id
    of each attribute of an element, in order. [log] gets every
    [(table, id, string)] the item wrote or found. The one item encoding:
    every shred and every insert or value update goes through it. Takes the
    mutex once; [attr] and [log] run under it and must not call into [t]. *)

val intern : t -> pool -> string -> int
(** Id of a string in a dictionary, interning it if new; in a pool, the
    index it is appended at. *)

val get : t -> pool -> int -> string
(** The string at an id. [Invalid_argument] on an id the table lacks. *)

val length : t -> pool -> int
(** Ids in use: one past the largest. *)

(** {1 Decoding a node's [name] cell} *)

val qname : t -> Kind.t -> int -> Xml.Qname.t
(** An element's name. [Invalid_argument] for other kinds. *)

val content : t -> Kind.t -> int -> string
(** A text or comment node's content, or a PI's data. [Invalid_argument]
    for an element. *)

val pi_target : t -> Kind.t -> int -> string
(** A PI's target. [Invalid_argument] for other kinds. *)

val attribute : t -> qn:int -> prop:int -> Xml.Qname.t * string
(** An attribute row's name and value. *)

val qn_id : t -> Xml.Qname.t -> int option
(** The interned id of a name, if any. Takes the mutex: a staging
    transaction may intern while a snapshot reader probes. *)

val qn_id_unlocked : t -> Xml.Qname.t -> int option
(** {!qn_id} without the mutex, for tables no other domain appends to while
    the caller probes: the read-only schema's, whose shred is its only
    writer. A name test on it probes once per step evaluation, which a
    value join repeats per outer node. *)

(** {1 Recovery and persistence} *)

val force : t -> pool -> int -> string -> unit
(** [force t table id s] makes [s] the string at [id], extending the table
    as needed: the idempotent write WAL replay redoes an append with.
    [Invalid_argument] when a dictionary's [id] holds another string. *)

val save : t -> Column.Persist.Enc.t -> unit
(** The six tables, in the order: qname and value dictionaries, then the
    text, comment, PI-target and PI-data pools. *)

val load : Column.Persist.Dec.t -> t
(** Inverse of {!save}. Raises {!Column.Persist.Dec.Corrupt} on malformed
    input. *)

val approx_bytes : t -> int
(** Footprint estimate: each string's bytes, plus 16 per dictionary entry
    and 8 per pool entry. *)
