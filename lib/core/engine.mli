(** XPath evaluation over a storage schema.

    A thin layer over {!Staircase} that adds node tests, predicates and the
    attribute axis.  Instantiated over both schemas, so the Figure 9
    comparison runs byte-identical query code against the two storage
    representations.

    Simplifications relative to XPath 1.0 (documented in README):
    - a relative path used as a comparison operand contributes the string
      value of its {e first} result node only;
    - comparisons where either operand is numeric are numeric (non-numeric
      strings compare false); otherwise string comparison;
    - the attribute axis is only valid as the final step of a path;
    - [//x] and [//*] select the root element's descendants, never the root
      element itself (XPath 1.0 also selects the root when it matches).

    {2 Evaluation}

    Each [descendant-or-self::node()/child::x[p]] (what [//x[p]] parses
    to) whose predicates are not positional is evaluated as
    [descendant::x[p]]. Every descendant step without a positional
    predicate is one staircase scan over its pruned context regions, with
    the node test and the predicates applied inside the scan.

    Each entry point compiles its path once into a plan before evaluating
    it: the fused steps and the absolute start, each step's node test and
    counter, and its predicates, whose sub-paths are plans of their own.
    Every name, in a node test, an attribute step or a predicate, is
    looked up in the dictionary then, once per evaluation; a name the
    dictionary lacks matches nothing. A one-step [@a] operand reads the
    attribute by its id with no item built. A child step tests each child,
    and applies the predicates before the first positional one, inside the
    sibling walk.

    {2 Parallel evaluation}

    Every entry point takes [?par]. With a {!Par} pool, axis steps are
    partitioned across the pool's domains and evaluated against the same
    storage value, which must therefore be domain-safe for reads — snapshot
    views are (their version descriptors are immutable after capture);
    staged writable views are not. Results are identical to the sequential
    ones. Two plans are used:

    - {e range}: a descendant scan whose regions span at least the pool's
      range cutoff is cut into equal-slot chunks (a cut may split one
      subtree — every used slot inside a pruned region is a descendant of
      its context), and the sorted disjoint partials concatenate into the
      final result.
    - {e ctx}: all other steps are partitioned by context list, keeping
      per-context semantics (positional predicates count per context);
      partials are merged with the same sort_uniq as the sequential path.

    Steps under the pool's cutoffs, and all predicate sub-paths, run
    sequentially (the latter also means pool workers never re-enter the
    pool).

    {2 Profiling}

    Every entry point also takes [?prof]. With a {!Profile.collector}, each
    axis step of the top-level path records a {!Profile.step} — axis, node
    test, chosen plan ([seq]/[range]/[ctx]), partition count, context-list
    size, slots scanned, items produced, duration — and runs inside an
    attributed ["engine.step"] span. Predicate sub-paths are not profiled
    (their cost shows up in the enclosing step's duration). With
    [prof = None] nothing is allocated for the profile and the only added
    work is a branch per context node. *)

module Make (S : Storage_intf.S) : sig
  type item =
    | Node of int  (** a tree node, by pre *)
    | Attribute of { owner : int; qn : Xml.Qname.t; value : string }

  val string_value : S.t -> int -> string
  (** XPath string value: text content of a text/comment/PI node, the
      concatenation of descendant text nodes for an element. *)

  val item_string : S.t -> item -> string

  val eval_items :
    S.t -> ?par:Par.t -> ?prof:Profile.collector -> ?context:int list ->
    Xpath.Xpath_ast.path -> item list
  (** Evaluate a path. Relative paths start from [context] (default: the
      root element); absolute paths always start from the virtual document
      node. Node results are in document order, duplicate-free. *)

  val eval_nodes :
    S.t -> ?par:Par.t -> ?prof:Profile.collector -> ?context:int list ->
    Xpath.Xpath_ast.path -> int list
  (** Like {!eval_items} but attribute results raise [Invalid_argument]
      (update targets must be tree nodes). *)

  val eval_string :
    S.t -> ?par:Par.t -> ?prof:Profile.collector -> ?context:int list ->
    Xpath.Xpath_ast.path -> string option
  (** String value of the first result, if any. *)

  val count :
    S.t -> ?par:Par.t -> ?prof:Profile.collector -> ?context:int list ->
    Xpath.Xpath_ast.path -> int

  val parse_eval :
    S.t -> ?par:Par.t -> ?prof:Profile.collector -> string -> item list
  (** Parse and evaluate in one call (raises {!Xpath.Xpath_parser.Syntax_error}). *)
end
