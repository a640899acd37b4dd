(** The storage access signature shared by every schema.

    The staircase join, axis evaluation, query engine and node serialiser are
    functors over this signature, so a read-only-vs-updateable measurement
    (the paper's Figure 9) compares storage representations only — the query
    code is byte-identical. [S] declares only what that functor code reads;
    a storage's own extras (live node counts, backward skips, update
    primitives) stay in its own interface.

    All accessors address nodes by [pre]: the position in the logically
    (document-) ordered view.  For {!Schema_ro} that view {e is} the table;
    for {!Schema_up} every access swizzles [pre] to a physical [pos] through
    the pageOffset permutation, and the view may contain {e unused} slots
    that {!S.next_used} skips in O(1) per free run, with {!skip_free}.

    Two kinds of access share the signature. A {e scan} (every used slot of
    a region, in document order) folds {!S.fold_runs}: the storage resolves
    pre to pos once per physically contiguous run and the caller loops over
    plain arrays. The per-node accessors serve {e point lookups} only:
    child, sibling and ancestor steps, and predicates. *)

let negative_free_run pre size =
  failwith (Printf.sprintf "Storage: unused slot at pre %d has size %d" pre size)

(** [skip_free pre size] is the slot after the free run whose head, at
    [pre], holds the run length [size]: [pre + size + 1]. Every hop over a
    free run goes through it. A negative length (a corrupt plane) would
    stand still or step back forever, so it raises [Failure] naming [pre]
    instead. *)
let[@inline] skip_free pre size =
  if size < 0 then negative_free_run pre size;
  pre + size + 1

(** A maximal stretch of the pre view that is physically contiguous: the
    slots [pre .. pre + len - 1] are the array cells [phys .. phys + len - 1]
    of [level], [size], [kind] and [name]. The arrays belong to the storage
    and are read-only to the caller; they may extend beyond the run on both
    sides.

    An unused slot has [level = Column.Varray.null], and its [size] counts
    the unused slots directly after it within its page. A run of a paged
    store never crosses a page boundary, so a scan hops over a free run
    with {!skip_free} and at most overshoots the run's end. A used slot's
    [size] is its stored descendant count: a staged transaction's pending
    ancestor deltas are not applied, so a caller that needs a used node's
    size asks {!S.size}. [kind] holds {!Kind.to_int} codes and [name] the
    {!S.name_id} of each slot. *)
type run = {
  level : int array;
  size : int array;
  kind : int array;
  name : int array;
  phys : int;
  pre : int;
  len : int;
}

(** The pre of array cell [i] of a run. *)
let[@inline] run_pre r i = r.pre + (i - r.phys)

(** [fold_pages ~page_size ~lo ~hi ~init f] folds [f acc first last] over
    the pieces [\[first, last)] of [\[max lo 0, hi)] cut at multiples of
    [page_size] (a power of two): the runs of a paged store. *)
let fold_pages ~page_size ~lo ~hi ~init f =
  let rec go acc first =
    if first >= hi then acc
    else
      let last = min hi ((first lor (page_size - 1)) + 1) in
      go (f acc first last) last
  in
  go init (max lo 0)

module type S = sig
  type t

  val extent : t -> int
  (** Number of slots in the pre view, {e including} unused slots.  Valid
      pre values are [0 .. extent - 1]. *)

  val next_used : t -> int -> int
  (** [next_used t pre] is the smallest used position [>= pre], or
      [extent t] when the suffix is all unused.  O(1) per free run thanks to
      the run-length convention on unused [size] cells ({!skip_free}); a
      negative run length raises [Failure]. Each storage keeps its own: on
      {!Schema_ro} it is the identity. *)

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

  val fold_runs : t -> lo:int -> hi:int -> init:'a -> ('a -> run -> 'a) -> 'a
  (** [fold_runs t ~lo ~hi ~init f] folds [f] over the runs that cover
      [\[max lo 0, min hi (extent t))], in document order, each non-empty.
      A snapshot's runs are validated {e after} [f] has read them, seqlock
      style: the accumulator [f] returns for a run that a commit overtook
      is discarded and [f] reads the run again from the snapshot's image,
      so [f] must keep its result in the accumulator and may run more than
      once per run. *)
end
