(** Staircase join: XPath axis evaluation over the pre/size/level plane
    ([GvKT03]), generalised to views that contain unused slots.

    The functor is instantiated once per storage schema; all algorithms work
    on {e sorted} context lists of pre positions and return sorted duplicate-
    free results.

    Scans (descendant, following, preceding) fold the store's physically
    contiguous runs ({!Storage_intf.S.fold_runs}) through {!fold_used};
    the other axes hop from node to node through the point accessors.

    Two properties of the updateable view shape the algorithms:
    - unused slots are skipped through the page-local free-run lengths in
      one hop per free run;
    - a used node's [size] is its {e descendant count}, not its extent in the
      view, so the sibling hop [pre + size + 1] may {e undershoot} (land on a
      deeper descendant — never beyond the next sibling); loops therefore
      terminate on [level] comparisons, and an undershoot just costs an extra
      hop.  On the read-only schema the hop is always exact, recovering the
      original staircase join. *)

(** A node test compiled for one step, in the terms a scan decides from a
    slot's [kind] and [name] cells (see {!Storage_intf.run}). *)
type test =
  | Any
  | Of_kind of int  (** a {!Kind.to_int} code *)
  | Named of int  (** an element with this interned qname id *)
  | Pi_named of string  (** a PI with this target *)
  | Nothing

val cells_match : test -> kind:int -> name:int -> bool
(** Whether a slot with these cells passes the test. [Pi_named] passes
    every PI: comparing the target is left to the caller. *)

module Make (S : Storage_intf.S) : sig
  val subtree_end : S.t -> int -> int
  (** First view position after the node's subtree (its own descendants),
      [extent] when the subtree reaches the end. *)

  val parent_of : S.t -> int -> int option
  (** Nearest preceding used node one level up; [None] for the root. *)

  val fold_used :
    S.t -> ?test:test -> lo:int -> hi:int -> init:'a ->
    ('a -> Storage_intf.run -> int -> 'a) -> 'a
  (** [fold_used t ~test ~lo ~hi ~init f] folds [f acc r i] over the used
      slots of [\[lo, hi)] that pass {!cells_match}[ test] (default [Any]),
      in document order, where [i] is the slot's cell in its run [r] (its
      pre is {!Storage_intf.run_pre}[ r i]). Each run is counted
      once in [engine.runs] and its length in [engine.slots_scanned]. As
      with {!Storage_intf.S.fold_runs}, [f] may run more than once for the
      same slot and keeps its result in the accumulator. Raises [Failure]
      on an unused slot whose free-run length is negative. *)

  val fold_children : S.t -> int -> init:'a -> ('a -> int -> 'a) -> 'a
  (** [fold_children t ctx ~init f] folds [f acc pre] over the children of
      [ctx] in document order, walking the sibling hops ({!S.size}, so a
      staged transaction's pending size deltas are applied). Raises
      [Failure] on a negative size. *)

  (** {1 Axes over context sets} *)

  val self : S.t -> int list -> int list

  val children : S.t -> int list -> int list

  val descendants : S.t -> ?or_self:bool -> int list -> int list
  (** Staircase-pruned: a context covered by a previous context's subtree is
      skipped, so no tuple is scanned twice. *)

  val prune_covered : S.t -> int list -> (int * int) list
  (** The pruning step of {!descendants} on its own: drop every context
      covered by an earlier context's subtree, and pair each survivor with
      its {!subtree_end}. The regions are pairwise disjoint and in document
      order — the property the parallel engine relies on to partition a
      descendant scan into ranges that never rescan each other's tuples. *)

  val parent : S.t -> int list -> int list

  val ancestors : S.t -> ?or_self:bool -> int list -> int list

  val following : S.t -> int list -> int list

  val preceding : S.t -> int list -> int list

  val following_siblings : S.t -> int list -> int list

  val preceding_siblings : S.t -> int list -> int list

  (** {1 Per-node axis enumeration (document order)} *)

  val axis_of_one : S.t -> Xpath.Xpath_ast.axis -> int -> int list
  (** The axis result for a single context node — the building block for
      positional predicates, which XPath defines per context node. *)
end
