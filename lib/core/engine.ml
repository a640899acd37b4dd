open Xpath.Xpath_ast

(* One counter per axis, shared by every Make instantiation (the registry
   dedups by name+labels). Counting context nodes per step — not per result —
   keeps the hot path at one atomic add per (step, context-list). A step
   looks its counter up when its path is compiled, never per evaluation. *)
let counter_of_axis =
  let counters =
    List.map
      (fun axis ->
        ( axis,
          Obs.counter ~help:"context nodes fed through axis steps"
            ~labels:[ ("axis", axis_name axis) ]
            "engine.axis_steps" ))
      [ Attribute; Child; Descendant; Descendant_or_self; Self; Parent;
        Ancestor; Ancestor_or_self; Following; Preceding; Following_sibling;
        Preceding_sibling ]
  in
  fun axis -> List.assq axis counters

let m_items = Obs.counter ~help:"items produced by path evaluations" "engine.items"

(* Positional predicates count within one context's axis result, so they pin
   the per-context evaluation order and rule out the descendant scan. *)
let positional = List.exists (function Pos _ | Last -> true | _ -> false)

(* `descendant-or-self::node()/child::T[p]`, the parser's `//T[p]`, selects
   exactly the descendants that pass T and p when no predicate is positional
   (a position counts among one parent's children). As one descendant step
   it is one staircase scan, not a materialisation of every descendant
   followed by a child step from each of them. *)
let dslash_child = function
  | { axis = Descendant_or_self; test = Kind_node; preds = [] }
    :: ({ axis = Child; preds; _ } as s)
    :: rest
    when not (positional preds) ->
    Some ({ s with axis = Descendant }, rest)
  | _ -> None

(* Shares the input list when nothing fuses, as in most predicate paths. *)
let rec fuse_dslash steps =
  match dslash_child steps with
  | Some (d, rest) -> d :: fuse_dslash rest
  | None -> (
    match steps with
    | [] -> steps
    | s :: rest ->
      let rest' = fuse_dslash rest in
      if rest' == rest then steps else s :: rest')

(* Contiguous n-way split, near-equal sizes, order preserved. *)
let chunk_list n xs =
  let len = List.length xs in
  let n = max 1 (min n len) in
  let base = len / n and extra = len mod n in
  let rec go i xs acc =
    if xs = [] then List.rev acc
    else
      let k = base + if i < extra then 1 else 0 in
      go (i + 1) (List.filteri (fun j _ -> j >= k) xs)
        (List.filteri (fun j _ -> j < k) xs :: acc)
  in
  go 0 xs []

(* Cut sorted disjoint [lo, hi) ranges into chunks of roughly [per] slots. A
   cut may fall inside a range: every used slot of a pruned context's region
   is one of its descendants, so a scan can resume mid-subtree. *)
let split_ranges per ranges =
  let chunks = ref [] and cur = ref [] and fill = ref 0 in
  let flush () =
    if !cur <> [] then begin
      chunks := List.rev !cur :: !chunks;
      cur := [];
      fill := 0
    end
  in
  let rec add (lo, hi) =
    let len = hi - lo in
    if len <= 0 then ()
    else if !fill + len < per then begin
      cur := (lo, hi) :: !cur;
      fill := !fill + len
    end
    else begin
      let take = per - !fill in
      cur := (lo, lo + take) :: !cur;
      flush ();
      add (lo + take, hi)
    end
  in
  List.iter add ranges;
  flush ();
  List.rev !chunks

(* The union of per-context step results, in document order: the
   concatenation itself when it is already strictly increasing (always for
   one context of a forward axis), found in one linear pass. *)
let union pres =
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  if increasing pres then pres else List.sort_uniq Int.compare pres

module Make (S : Storage_intf.S) = struct
  module Sj = Staircase.Make (S)

  type item =
    | Node of int
    | Attribute of { owner : int; qn : Xml.Qname.t; value : string }

  (* The virtual document node: parent of the root element. It is never
     returned in results; it only seeds absolute paths. *)
  let doc_node = -1

  let string_value t pre =
    match S.kind t pre with
    | Kind.Text | Kind.Comment | Kind.Pi -> S.content t pre
    | Kind.Element ->
      Sj.fold_used t ~test:(Of_kind (Kind.to_int Kind.Text)) ~lo:(pre + 1)
        ~hi:(Sj.subtree_end t pre) ~init:[] (fun acc r i ->
          S.content t (Storage_intf.run_pre r i) :: acc)
      |> List.rev |> String.concat ""

  let item_string t = function
    | Node pre -> string_value t pre
    | Attribute a -> a.value

  let is_element t pre = pre <> doc_node && Kind.equal (S.kind t pre) Kind.Element

  (* What [Staircase.cells_match] leaves to the caller. *)
  let target_ok t (test : Staircase.test) pre =
    match test with
    | Pi_named target -> String.equal (S.pi_target t pre) target
    | Any | Of_kind _ | Named _ | Nothing -> true

  (* A named test reads the name cell first, so a node without the name
     costs one point lookup. *)
  let matches_node t (test : Staircase.test) pre =
    match test with
    | Any -> true
    | Named id -> S.name_id t pre = id && Kind.equal (S.kind t pre) Kind.Element
    | Of_kind _ | Pi_named _ | Nothing ->
      Staircase.cells_match test ~kind:(Kind.to_int (S.kind t pre))
        ~name:(S.name_id t pre)
      && target_ok t test pre

  (* Axis application for one context, handling the virtual document node.
     Results come back in axis order. *)
  let axis_one t axis ctx =
    if ctx <> doc_node then Sj.axis_of_one t axis ctx
    else
      let root = S.root_pre t in
      match axis with
      | Child -> [ root ]
      | Descendant | Descendant_or_self -> root :: Sj.descendants t [ root ]
      | Self | Parent | Ancestor | Ancestor_or_self | Following | Preceding
      | Following_sibling | Preceding_sibling ->
        []
      | Attribute -> invalid_arg "Engine: attribute axis on the document node"

  (* The view regions a descendant step scans: [lo, hi) ranges, sorted and
     pairwise disjoint after staircase pruning. Every used slot from the root
     element on is a descendant of the document node (or the root itself,
     which descendant::x from the document node includes). *)
  let descendant_ranges t ~or_self ctxs =
    if List.mem doc_node ctxs then [ (S.root_pre t, S.extent t) ]
    else
      List.filter_map
        (fun (c, hi) ->
          let lo = if or_self then c else c + 1 in
          if lo < hi then Some (lo, hi) else None)
        (Sj.prune_covered t ctxs)

  let contains_sub ~needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0

  type value_result = VStr of string | VNum of float | VNone

  let to_string = function
    | VStr s -> s
    | VNum f -> if Float.is_integer f then string_of_int (int_of_float f) else string_of_float f
    | VNone -> ""

  let compare_values va op vb =
    let numeric =
      match va, vb with
      | VNum _, _ | _, VNum _ -> true
      | VStr _, VStr _ -> false
      | VNone, _ | _, VNone -> false
    in
    if numeric then
      let num = function
        | VNum f -> Some f
        | VStr s -> float_of_string_opt (String.trim s)
        | VNone -> None
      in
      match num va, num vb with
      | Some x, Some y -> (
        match op with
        | Eq -> x = y
        | Neq -> x <> y
        | Lt -> x < y
        | Le -> x <= y
        | Gt -> x > y
        | Ge -> x >= y)
      | None, _ | _, None -> false
    else
      let x = to_string va and y = to_string vb in
      match op with
      | Eq -> String.equal x y
      | Neq -> not (String.equal x y)
      | Lt -> String.compare x y < 0
      | Le -> String.compare x y <= 0
      | Gt -> String.compare x y > 0
      | Ge -> String.compare x y >= 0

  (* ------------------------------------------------------------- plans -- *)

  (* A path compiled for one evaluation over one storage value. Every name
     is resolved in the dictionary here, once, and a name the dictionary
     lacks matches nothing: each candidate then costs integer comparisons.
     A predicate before the step's first positional one is a test on one
     item ([keep]); from the first positional one on, predicates filter the
     step's candidate list per context in order ([rest]), positions being
     1-based indices into the list the previous predicate left. *)
  type pred = Nth of int | Last_one | Filter of (item -> bool)

  type select =
    | Tree of Staircase.test
    | Attr_named of Xml.Qname.t * int
    | Attr_all
    | Attr_none  (* an unknown name or a kind test *)

  type step_plan = {
    ast : step;  (* what the profile and the step span name *)
    axis_steps : Obs.counter;
    select : select;
    keep : (item -> bool) option;
    rest : pred list;
  }

  (* [From_root] starts an absolute path that begins with a fused `//T` at
     the root element, and "/" itself. *)
  type start = From_ctx | From_doc | From_root

  type plan = { start : start; steps : step_plan list }

  let apply_pred items = function
    | Nth n -> ( match List.nth_opt items (n - 1) with Some it -> [ it ] | None -> [])
    | Last_one -> ( match List.rev items with it :: _ -> [ it ] | [] -> [])
    | Filter f -> List.filter f items

  let node_pres items =
    List.filter_map (function Node c -> Some c | Attribute _ -> None) items

  (* What profiling records of one step: filled in by the step, allocated
     only when a collector is given. *)
  type acct = {
    mutable plan : Profile.plan;
    mutable partitions : int;
    scanned : int Atomic.t;
  }

  let note acct n =
    match acct with
    | None -> ()
    | Some a -> ignore (Atomic.fetch_and_add a.scanned n)

  (* A parallel step: counted always, recorded when profiling. *)
  let set_plan acct plan n =
    Par.note_parallel_step (if plan = Profile.Range then `Range else `Ctx) n;
    match acct with
    | None -> ()
    | Some a ->
      a.plan <- plan;
      a.partitions <- n

  (* Run one axis step, recording a Profile.step and an attributed span when
     profiling is on. *)
  let profiled ~prof (step : step) ~ctx_in f =
    match prof with
    | None -> f None
    | Some c ->
      let a = { plan = Profile.Seq; partitions = 1; scanned = Atomic.make 0 } in
      let t0 = Obs.monotonic () in
      let out =
        Obs.Span.with_ "engine.step" (fun () ->
            let out = f (Some a) in
            Obs.Span.set_str "axis" (axis_name step.axis);
            Obs.Span.set_str "test" (test_name step.test);
            Obs.Span.set_str "plan" (Profile.plan_name a.plan);
            Obs.Span.set_int "partitions" a.partitions;
            Obs.Span.set_int "ctx" ctx_in;
            Obs.Span.set_int "scanned" (Atomic.get a.scanned);
            Obs.Span.set_int "items" (List.length out);
            out)
      in
      Profile.record c
        { Profile.axis = axis_name step.axis;
          test = test_name step.test;
          preds = List.length step.preds;
          plan = a.plan;
          partitions = a.partitions;
          ctx_in;
          scanned = Atomic.get a.scanned;
          items = List.length out;
          dur_s = Obs.monotonic () -. t0 };
      out

  (* Parallel evaluation ([~par] is a Par.t pool) partitions one axis step
     over the pool's domains; predicate sub-paths always run sequentially
     inside whichever domain evaluates them (workers never re-submit, so the
     pool cannot deadlock on itself).

     A descendant step without positional predicates is one staircase scan:
     after pruning, its contexts' subtrees are a union of pairwise disjoint
     document-order regions, and one pass over them applies the node test
     and the predicates to each used slot, emitting survivors in document
     order with no intermediate list and no re-sort. With a pool and a span
     of at least [Par.range_cutoff] slots the regions are cut into
     equal-span chunks scanned in parallel (the range plan); the chunk
     outputs are sorted and disjoint, so concatenation is the merge. Every
     other step evaluates per context (positional predicates count per
     context), partitioned by context list under a pool (the ctx plan) and
     merged by [union] — the same union the sequential path computes. A
     child step tests each child, and applies the predicates before the
     first positional one, inside the sibling walk.

     Profiling ([~prof] is a Profile.collector) records one step record per
     axis step — plan chosen, partitions, slots scanned, items produced —
     and wraps the step in an attributed span. *)
  let tree_step ~pool acct t ctxs s test =
    let keep =
      match s.keep with None -> fun _ -> true | Some keep -> fun pre -> keep (Node pre)
    in
    match s.ast.axis with
    | (Descendant | Descendant_or_self) as axis when s.rest = [] -> (
      let ranges = descendant_ranges t ~or_self:(axis = Descendant_or_self) ctxs in
      let span = List.fold_left (fun a (lo, hi) -> a + (hi - lo)) 0 ranges in
      (* one note for the whole scan: the inner loop stays branch-free *)
      note acct span;
      let keep_slot acc r i =
        let pre = Storage_intf.run_pre r i in
        if target_ok t test pre && keep pre then pre :: acc else acc
      in
      let scan chunk () =
        List.rev
          (List.fold_left
             (fun acc (lo, hi) -> Sj.fold_used t ~test ~lo ~hi ~init:acc keep_slot)
             [] chunk)
      in
      match pool with
      | Some pool when span >= Par.range_cutoff pool ->
        let per = max 1 ((span + Par.domains pool - 1) / Par.domains pool) in
        let chunks = split_ranges per ranges in
        set_plan acct Profile.Range (List.length chunks);
        let parts = Par.run pool (List.map scan chunks) in
        (* partition outputs are sorted and pairwise disjoint (pruning
           made the regions disjoint): concatenation IS the sorted
           duplicate-free union *)
        Par.time_merge (fun () -> List.concat parts)
      | Some _ | None -> scan ranges ())
    | axis -> (
      let pass pre = matches_node t test pre && keep pre in
      let keep_child acc c = if pass c then c :: acc else acc in
      let candidates ctx =
        match axis with
        | Child when ctx <> doc_node -> (
          match acct with
          | None -> List.rev (Sj.fold_children t ctx ~init:[] keep_child)
          | Some _ ->
            let walked = ref 0 in
            let kept =
              Sj.fold_children t ctx ~init:[] (fun acc c ->
                  incr walked;
                  keep_child acc c)
            in
            note acct !walked;
            List.rev kept)
        | _ ->
          let all = axis_one t axis ctx in
          note acct (List.length all);
          List.filter pass all
      in
      let step_one ctx =
        match s.rest with
        | [] -> candidates ctx
        | rest ->
          node_pres
            (List.fold_left apply_pred
               (List.map (fun c -> Node c) (candidates ctx))
               rest)
      in
      match pool with
      | Some pool when List.length ctxs >= Par.ctx_cutoff pool ->
        let chunks = chunk_list (Par.domains pool) ctxs in
        set_plan acct Profile.Ctx (List.length chunks);
        let parts =
          Par.run pool (List.map (fun chunk () -> List.concat_map step_one chunk) chunks)
        in
        Par.time_merge (fun () -> union (List.concat parts))
      | Some _ | None -> (
        match ctxs with
        | [ ctx ] -> union (step_one ctx)
        | _ -> union (List.concat_map step_one ctxs)))

  let attr_step ~pool acct t ctxs s =
    let attrs_of ctx =
      if not (is_element t ctx) then []
      else
        match s.select with
        | Attr_named (qn, id) -> (
          note acct 1;
          match S.attribute_id t ctx id with
          | Some value -> [ Attribute { owner = ctx; qn; value } ]
          | None -> [])
        | Attr_all ->
          let all = S.attributes t ctx in
          note acct (List.length all);
          List.map (fun (qn, value) -> Attribute { owner = ctx; qn; value }) all
        | Attr_none | Tree _ -> []
    in
    let attrs =
      match pool with
      | Some pool when List.length ctxs >= Par.ctx_cutoff pool ->
        let chunks = chunk_list (Par.domains pool) ctxs in
        set_plan acct Profile.Ctx (List.length chunks);
        let parts =
          Par.run pool (List.map (fun chunk () -> List.concat_map attrs_of chunk) chunks)
        in
        (* predicates below see the same concatenation order as the
           sequential path, so positional predicates stay correct *)
        Par.time_merge (fun () -> List.concat parts)
      | Some _ | None -> List.concat_map attrs_of ctxs
    in
    let attrs = match s.keep with None -> attrs | Some keep -> List.filter keep attrs in
    List.fold_left apply_pred attrs s.rest

  let rec run_steps ~pool ~prof t ctxs = function
    | [] -> List.map (fun c -> Node c) ctxs
    | s :: rest -> (
      let ctx_in = List.length ctxs in
      Obs.add s.axis_steps ctx_in;
      match s.select with
      | Tree test ->
        let out =
          profiled ~prof s.ast ~ctx_in (fun acct -> tree_step ~pool acct t ctxs s test)
        in
        run_steps ~pool ~prof t out rest
      | Attr_named _ | Attr_all | Attr_none ->
        (* compile leaves an attribute step only at the end *)
        profiled ~prof s.ast ~ctx_in (fun acct -> attr_step ~pool acct t ctxs s))

  let run ~par ~prof t ctxs plan =
    let ctxs =
      match plan.start with
      | From_ctx -> ctxs
      | From_doc -> [ doc_node ]
      | From_root -> [ S.root_pre t ]
    in
    let pool =
      match par with Some pool when Par.domains pool > 1 -> Some pool | _ -> None
    in
    run_steps ~pool ~prof t ctxs plan.steps

  (* A predicate's path from its context item. Always sequential and never
     profiled: it may run inside a pool worker (workers must never
     re-submit), and profile steps belong to the top-level path only. *)
  let rel t plan = function
    | Node ctx -> run ~par:None ~prof:None t [ ctx ] plan
    | Attribute _ when plan.start <> From_ctx -> run ~par:None ~prof:None t [] plan
    | Attribute _ -> [] (* no forward axes from attribute nodes *)

  (* Compile a parsed path. Every `//T[p]` is fused into one descendant step
     first. From the document node `//T` selects the root element's
     descendants and never the root itself (see DESIGN.md), which is
     `descendant::T` from the root element; an explicit descendant step from
     the document node still includes the root. *)
  let rec compile t (p : path) =
    let start, steps =
      if not p.absolute then (From_ctx, fuse_dslash p.steps)
      else if p.steps = [] then (From_root, [])
      else
        match dslash_child p.steps with
        | Some (d, rest) -> (From_root, d :: fuse_dslash rest)
        | None -> (From_doc, fuse_dslash p.steps)
    in
    let rec steps_of = function
      | [] -> []
      | [ ({ axis = Attribute; _ } as s) ] -> [ compile_step t s ]
      | { axis = Attribute; _ } :: _ :: _ ->
        invalid_arg "Engine: attribute axis must be the final step"
      | s :: rest ->
        let s = compile_step t s in
        s :: steps_of rest
    in
    { start; steps = steps_of steps }

  and compile_step t (step : step) =
    let select =
      match step.axis, step.test with
      | Attribute, Name q -> (
        match S.qn_id t q with Some id -> Attr_named (q, id) | None -> Attr_none)
      | Attribute, (Wildcard | Kind_node) -> Attr_all
      | Attribute, (Kind_text | Kind_comment | Kind_pi _) -> Attr_none
      | _, test -> Tree (compile_test t test)
    in
    let rec split = function
      | (Pos _ | Last) :: _ as rest -> ([], rest)
      | p :: ps ->
        let leading, rest = split ps in
        (p :: leading, rest)
      | [] -> ([], [])
    in
    let leading, rest = split step.preds in
    let keep =
      match List.map (compile_pred t) leading with
      | [] -> None
      | f :: fs -> Some (List.fold_left (fun a b it -> a it && b it) f fs)
    in
    let in_order = function
      | Pos n -> Nth n
      | Last -> Last_one
      | p -> Filter (compile_pred t p)
    in
    { ast = step;
      axis_steps = counter_of_axis step.axis;
      select;
      keep;
      rest = List.map in_order rest }

  (* A node test becomes the one matcher that the run scan and the per-node
     steps both apply. *)
  and compile_test t : _ -> Staircase.test = function
    | Kind_node -> Any
    | Wildcard -> Of_kind (Kind.to_int Kind.Element)
    | Name q -> ( match S.qn_id t q with Some id -> Named id | None -> Nothing)
    | Kind_text -> Of_kind (Kind.to_int Kind.Text)
    | Kind_comment -> Of_kind (Kind.to_int Kind.Comment)
    | Kind_pi None -> Of_kind (Kind.to_int Kind.Pi)
    | Kind_pi (Some target) -> Pi_named target

  and compile_pred t = function
    | Pos _ | Last -> invalid_arg "Engine: positional predicate inside and/or/not"
    | And (a, b) ->
      let a = compile_pred t a and b = compile_pred t b in
      fun it -> a it && b it
    | Or (a, b) ->
      let a = compile_pred t a and b = compile_pred t b in
      fun it -> a it || b it
    | Not p ->
      let p = compile_pred t p in
      fun it -> not (p it)
    | Exists p -> (
      match compile_attr_operand t p with
      | Some read -> fun it -> Option.is_some (read it)
      | None ->
        let sub = compile t p in
        fun it -> rel t sub it <> [])
    | Contains (a, b) -> (
      let a = compile_value t a and b = compile_value t b in
      fun it ->
        match a it, b it with
        | (VStr _ | VNum _), VNone | VNone, _ -> false
        | va, vb -> contains_sub ~needle:(to_string vb) (to_string va))
    | Cmp (a, op, b) -> (
      let a = compile_value t a and b = compile_value t b in
      fun it ->
        match a it, b it with
        | VNone, _ | _, VNone -> false
        | va, vb -> compare_values va op vb)

  and compile_value t = function
    | Lit_str s ->
      let v = VStr s in
      fun _ -> v
    | Lit_num f ->
      let v = VNum f in
      fun _ -> v
    | Ctx_string -> fun it -> VStr (item_string t it)
    | Path_string p -> (
      match compile_attr_operand t p with
      | Some read -> fun it -> ( match read it with Some v -> VStr v | None -> VNone)
      | None -> (
        let sub = compile t p in
        fun it ->
          match rel t sub it with [] -> VNone | first :: _ -> VStr (item_string t first)))
    | Count p ->
      let sub = compile t p in
      fun it -> VNum (float_of_int (List.length (rel t sub it)))

  (* `@a` as an operand: the attribute's value, read by its interned id
     with no item and no list built. Counted like the attribute step it
     replaces, once per context node. *)
  and compile_attr_operand t = function
    | { absolute = false; steps = [ { axis = Attribute; test = Name q; preds = [] } ] }
      ->
      let id = S.qn_id t q and counter = counter_of_axis Attribute in
      Some
        (function
        | Node ctx -> (
          Obs.inc counter;
          match id with
          | Some id when is_element t ctx -> S.attribute_id t ctx id
          | Some _ | None -> None)
        | Attribute _ -> None)
    | _ -> None

  let eval_items t ?par ?prof ?context p =
    let ctxs = match context with Some c -> c | None -> [ S.root_pre t ] in
    let items = run ~par ~prof t ctxs (compile t p) in
    Obs.add m_items (List.length items);
    items

  let eval_nodes t ?par ?prof ?context p =
    List.map
      (function
        | Node pre -> pre
        | Attribute _ -> invalid_arg "Engine.eval_nodes: attribute result")
      (eval_items t ?par ?prof ?context p)

  let eval_string t ?par ?prof ?context p =
    match eval_items t ?par ?prof ?context p with
    | [] -> None
    | it :: _ -> Some (item_string t it)

  let count t ?par ?prof ?context p = List.length (eval_items t ?par ?prof ?context p)

  let parse_eval t ?par ?prof src =
    eval_items t ?par ?prof (Xpath.Xpath_parser.parse src)
end
