open Xpath.Xpath_ast

(* One counter per axis, shared by every Make instantiation (the registry
   dedups by name+labels). Counting context nodes per step — not per result —
   keeps the hot path at one atomic add per (step, context-list). A
   predicate's path is a step per candidate, so the lookup compares
   immediates ([assq]) and finds the attribute and child axes first. *)
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

  (* A node test compiled once per step into the one matcher that the run
     scan and the per-node steps both apply: a name is looked up in the
     dictionary once, so each candidate costs integer comparisons, and a
     name the dictionary lacks matches nothing. *)
  let compile_test t : _ -> Staircase.test = function
    | Kind_node -> Any
    | Wildcard -> Of_kind (Kind.to_int Kind.Element)
    | Name q -> ( match S.qn_id t q with Some id -> Named id | None -> Nothing)
    | Kind_text -> Of_kind (Kind.to_int Kind.Text)
    | Kind_comment -> Of_kind (Kind.to_int Kind.Comment)
    | Kind_pi None -> Of_kind (Kind.to_int Kind.Pi)
    | Kind_pi (Some target) -> Pi_named target

  (* What [Staircase.cells_match] leaves to the caller. *)
  let target_ok t (test : Staircase.test) pre =
    match test with
    | Pi_named target -> String.equal (S.pi_target t pre) target
    | Any | Of_kind _ | Named _ | Nothing -> true

  let matches_node t test pre =
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
     merged by sort_uniq — the same union the sequential path computes.

     Profiling ([~prof] is a Profile.collector) records one step record per
     axis step — plan chosen, partitions, slots scanned, items produced —
     and wraps the step in an attributed span. With [prof = None] the only
     overhead is a no-op closure call per context node. *)
  let rec eval_steps ~par ~prof t ctxs steps =
    match steps with
    | [] -> List.map (fun c -> Node c) ctxs
    | [ ({ axis = Attribute; test; preds } as step) ] ->
      Obs.add (counter_of_axis Attribute) (List.length ctxs);
      let plan = ref Profile.Seq and partitions = ref 1 in
      let scanned = Atomic.make 0 in
      let note =
        match prof with
        | None -> fun (_ : int) -> ()
        | Some _ -> fun n -> ignore (Atomic.fetch_and_add scanned n)
      in
      (* a name test is resolved once and decodes only the attribute it
         names *)
      let attrs_of =
        match test with
        | Name q -> (
          match S.qn_id t q with
          | None -> fun _ -> []
          | Some id ->
            fun ctx ->
              if not (is_element t ctx) then []
              else begin
                note 1;
                match S.attribute_id t ctx id with
                | Some value -> [ Attribute { owner = ctx; qn = q; value } ]
                | None -> []
              end)
        | Wildcard | Kind_node ->
          fun ctx ->
            if not (is_element t ctx) then []
            else begin
              let all = S.attributes t ctx in
              note (List.length all);
              List.map (fun (qn, value) -> Attribute { owner = ctx; qn; value }) all
            end
        | Kind_text | Kind_comment | Kind_pi _ -> fun _ -> []
      in
      let run_step () =
        let attrs =
          match par with
          | Some pool
            when Par.domains pool > 1 && List.length ctxs >= Par.ctx_cutoff pool
            ->
            let chunks = chunk_list (Par.domains pool) ctxs in
            Par.note_parallel_step `Ctx (List.length chunks);
            plan := Profile.Ctx;
            partitions := List.length chunks;
            let parts =
              Par.run pool
                (List.map (fun chunk () -> List.concat_map attrs_of chunk) chunks)
            in
            (* predicates below see the same concatenation order as the
               sequential path, so positional predicates stay correct *)
            Par.time_merge (fun () -> List.concat parts)
          | Some _ | None -> List.concat_map attrs_of ctxs
        in
        List.fold_left (fun items p -> apply_pred_items t items p) attrs preds
      in
      profiled_step ~prof step ~ctx_in:(List.length ctxs) ~plan ~partitions
        ~scanned ~out_card:List.length run_step
    | { axis = Attribute; _ } :: _ :: _ ->
      invalid_arg "Engine: attribute axis must be the final step"
    | ({ axis; test; preds } as step) :: rest ->
      Obs.add (counter_of_axis axis) (List.length ctxs);
      let plan = ref Profile.Seq and partitions = ref 1 in
      let scanned = Atomic.make 0 in
      let note =
        match prof with
        | None -> fun (_ : int) -> ()
        | Some _ -> fun n -> ignore (Atomic.fetch_and_add scanned n)
      in
      let test = compile_test t test in
      let pool =
        match par with Some pool when Par.domains pool > 1 -> Some pool | _ -> None
      in
      let run_step () =
        match axis with
        | (Descendant | Descendant_or_self) when not (positional preds) ->
          let ranges =
            descendant_ranges t ~or_self:(axis = Descendant_or_self) ctxs
          in
          let span = List.fold_left (fun a (lo, hi) -> a + (hi - lo)) 0 ranges in
          (* one note for the whole scan: the inner loop stays branch-free *)
          note span;
          let keep acc r i =
            let pre = Storage_intf.run_pre r i in
            if
              target_ok t test pre
              && List.for_all (fun p -> eval_pred t (Node pre) p) preds
            then pre :: acc
            else acc
          in
          let scan chunk () =
            List.rev
              (List.fold_left
                 (fun acc (lo, hi) -> Sj.fold_used t ~test ~lo ~hi ~init:acc keep)
                 [] chunk)
          in
          (match pool with
          | Some pool when span >= Par.range_cutoff pool ->
            let per = max 1 ((span + Par.domains pool - 1) / Par.domains pool) in
            let chunks = split_ranges per ranges in
            Par.note_parallel_step `Range (List.length chunks);
            plan := Profile.Range;
            partitions := List.length chunks;
            let parts = Par.run pool (List.map scan chunks) in
            (* partition outputs are sorted and pairwise disjoint (pruning
               made the regions disjoint): concatenation IS the sorted
               duplicate-free union *)
            Par.time_merge (fun () -> List.concat parts)
          | Some _ | None -> scan ranges ())
        | _ -> (
          let step_one ctx =
            let all = axis_one t axis ctx in
            note (List.length all);
            let items =
              List.filter_map
                (fun c -> if matches_node t test c then Some (Node c) else None)
                all
            in
            let survivors =
              List.fold_left (fun items p -> apply_pred_items t items p) items preds
            in
            List.filter_map (function Node c -> Some c | Attribute _ -> None) survivors
          in
          match pool with
          | Some pool when List.length ctxs >= Par.ctx_cutoff pool ->
            let chunks = chunk_list (Par.domains pool) ctxs in
            Par.note_parallel_step `Ctx (List.length chunks);
            plan := Profile.Ctx;
            partitions := List.length chunks;
            let parts =
              Par.run pool
                (List.map (fun chunk () -> List.concat_map step_one chunk) chunks)
            in
            Par.time_merge (fun () -> List.sort_uniq Int.compare (List.concat parts))
          | Some _ | None -> List.sort_uniq Int.compare (List.concat_map step_one ctxs))
      in
      let out =
        profiled_step ~prof step ~ctx_in:(List.length ctxs) ~plan ~partitions
          ~scanned ~out_card:List.length run_step
      in
      eval_steps ~par ~prof t out rest

  (* Run one axis step, recording a Profile.step and an attributed span when
     profiling is on. [plan]/[partitions]/[scanned] are filled in by [f]. *)
  and profiled_step :
        'r. prof:Profile.collector option -> Xpath.Xpath_ast.step ->
        ctx_in:int -> plan:Profile.plan ref -> partitions:int ref ->
        scanned:int Atomic.t -> out_card:('r -> int) -> (unit -> 'r) -> 'r =
   fun ~prof step ~ctx_in ~plan ~partitions ~scanned ~out_card f ->
    match prof with
    | None -> f ()
    | Some c ->
      let t0 = Obs.monotonic () in
      let out =
        Obs.Span.with_ "engine.step" (fun () ->
            let out = f () in
            Obs.Span.set_str "axis" (axis_name step.axis);
            Obs.Span.set_str "test" (test_name step.test);
            Obs.Span.set_str "plan" (Profile.plan_name !plan);
            Obs.Span.set_int "partitions" !partitions;
            Obs.Span.set_int "ctx" ctx_in;
            Obs.Span.set_int "scanned" (Atomic.get scanned);
            Obs.Span.set_int "items" (out_card out);
            out)
      in
      Profile.record c
        { Profile.axis = axis_name step.axis;
          test = test_name step.test;
          preds = List.length step.preds;
          plan = !plan;
          partitions = !partitions;
          ctx_in;
          scanned = Atomic.get scanned;
          items = out_card out;
          dur_s = Obs.monotonic () -. t0 };
      out

  (* Predicates filter an ordered candidate list; positions are 1-based
     indices into the list surviving the previous predicate. *)
  and apply_pred_items t items pred =
    match pred with
    | Pos n -> ( match List.nth_opt items (n - 1) with Some it -> [ it ] | None -> [])
    | Last -> ( match List.rev items with it :: _ -> [ it ] | [] -> [])
    | _ -> List.filter (fun it -> eval_pred t it pred) items

  and eval_pred t it pred =
    match pred with
    | Pos _ | Last -> assert false (* handled positionally above *)
    | And (a, b) -> eval_pred t it a && eval_pred t it b
    | Or (a, b) -> eval_pred t it a || eval_pred t it b
    | Not p -> not (eval_pred t it p)
    | Exists p -> eval_rel t it p <> []
    | Contains (a, b) -> (
      match eval_value t it a, eval_value t it b with
      | (VStr _ | VNum _), VNone | VNone, _ -> false
      | va, vb -> contains_sub ~needle:(to_string vb) (to_string va))
    | Cmp (a, op, b) -> (
      match eval_value t it a, eval_value t it b with
      | VNone, _ | _, VNone -> false
      | va, vb -> compare_values va op vb)

  and to_string = function
    | VStr s -> s
    | VNum f -> if Float.is_integer f then string_of_int (int_of_float f) else string_of_float f
    | VNone -> ""

  and compare_values va op vb =
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

  and eval_value t it = function
    | Lit_str s -> VStr s
    | Lit_num f -> VNum f
    | Ctx_string -> VStr (item_string t it)
    | Path_string p -> (
      match eval_rel t it p with
      | [] -> VNone
      | first :: _ -> VStr (item_string t first))
    | Count p -> VNum (float_of_int (List.length (eval_rel t it p)))

  (* A predicate's path from its context item. Always sequential and never
     profiled: it may run inside a pool worker (workers must never
     re-submit), and profile steps belong to the top-level path only. *)
  and eval_rel t it p =
    match it with
    | Node ctx -> eval_path ~par:None ~prof:None t [ ctx ] p
    | Attribute _ when p.absolute -> eval_path ~par:None ~prof:None t [] p
    | Attribute _ -> [] (* no forward axes from attribute nodes *)

  (* Where a path evaluation enters [eval_steps]: every `//T[p]` is fused
     into one descendant step first. From the document node `//T` selects
     the root element's descendants and never the root itself (see
     DESIGN.md), which is `descendant::T` from the root element; an explicit
     descendant step from the document node still includes the root. *)
  and eval_path ~par ~prof t ctxs p =
    let ctxs, steps =
      if not p.absolute then (ctxs, fuse_dslash p.steps)
      else
        match dslash_child p.steps with
        | Some (d, rest) -> ([ S.root_pre t ], d :: fuse_dslash rest)
        | None -> ([ doc_node ], fuse_dslash p.steps)
    in
    eval_steps ~par ~prof t ctxs steps

  let eval_items t ?par ?prof ?context p =
    let items =
      if p.absolute && p.steps = [] then [ Node (S.root_pre t) ]
      else
        let ctxs = match context with Some c -> c | None -> [ S.root_pre t ] in
        eval_path ~par ~prof t ctxs p
    in
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
