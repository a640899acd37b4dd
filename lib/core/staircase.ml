(* A node test compiled for one step (see Engine) into what a scan decides
   from a slot's kind and name cells. [cells_match] passes every PI for
   [Pi_named]; the caller compares the target. *)
type test = Any | Of_kind of int | Named of int | Pi_named of string | Nothing

let k_element, k_pi = Kind.(to_int Element, to_int Pi)

let[@inline] cells_match test ~kind ~name =
  match test with
  | Any -> true
  | Of_kind k -> kind = k
  | Named id -> kind = k_element && name = id
  | Pi_named _ -> kind = k_pi
  | Nothing -> false

(* Counted once per run, never per slot. *)
let m_runs = Obs.counter ~help:"storage runs folded by scans" "engine.runs"

let m_slots =
  Obs.counter ~help:"view slots covered by the runs scans folded"
    "engine.slots_scanned"

module Make (S : Storage_intf.S) = struct
  let sort_uniq l = List.sort_uniq Int.compare l

  (* The one scan loop: [f acc r i] for every used slot of [lo, hi) that
     passes [test], with [r] the slot's storage run and [i] its cell. A free
     run is hopped with [Storage_intf.skip_free] in pre space ([off] maps a
     cell to its pre), so a negative size raises naming the pre instead of
     spinning. *)
  let fold_used t ?(test = Any) ~lo ~hi ~init f =
    S.fold_runs t ~lo ~hi ~init (fun acc (r : Storage_intf.run) ->
        Obs.inc m_runs;
        Obs.add m_slots r.len;
        let stop = r.phys + r.len and off = r.pre - r.phys in
        let rec go i acc =
          if i >= stop then acc
          else if r.level.(i) <> Column.Varray.null then
            go (i + 1)
              (if cells_match test ~kind:r.kind.(i) ~name:r.name.(i) then f acc r i
               else acc)
          else go (Storage_intf.skip_free (i + off) r.size.(i) - off) acc
        in
        go r.phys acc)

  let used_in t ~lo ~hi keep =
    List.rev
      (fold_used t ~lo ~hi ~init:[] (fun acc r i ->
           let pre = Storage_intf.run_pre r i in
           if keep pre then pre :: acc else acc))

  (* Hop from a used node towards its next sibling: [pre + size + 1] skips at
     least the node's own descendants (undershoot lands on a descendant of a
     sibling-candidate, never past one). Every scan that hops ends only
     because the hop advances, so a negative size (a corrupt plane) raises
     here instead of spinning forever on the same node. *)
  let sibling_hop t pre =
    let size = S.size t pre in
    if size < 0 then
      failwith
        (Printf.sprintf "Staircase: node at pre %d has size %d" pre size);
    S.next_used t (pre + size + 1)

  let subtree_end t ctx =
    let lvl = S.level t ctx in
    let stop = S.extent t in
    let rec go pre =
      if pre >= stop then stop
      else if S.level t pre <= lvl then pre
      else go (sibling_hop t pre)
    in
    go (S.next_used t (ctx + 1))

  (* Ancestors by descending from the root: subtree regions are contiguous
     in the view, so the child of [j] whose region contains [x] is the last
     child [<= x] — found with sibling hops, skipping whole subtrees. This
     costs O(depth * fanout-prefix) instead of the O(preceding nodes) of a
     backward scan, which matters in wide trees. Root-first order. *)
  let ancestors_of t x =
    let root = S.next_used t 0 in
    if x = root || x >= S.extent t then []
    else begin
      let stop = S.extent t in
      let last_child_le j =
        let lvl = S.level t j in
        let rec scan pre best =
          if pre >= stop || pre > x then best
          else
            let l = S.level t pre in
            if l <= lvl then best
            else if l = lvl + 1 then scan (sibling_hop t pre) (Some pre)
            else scan (sibling_hop t pre) best (* undershoot: deeper node *)
        in
        scan (S.next_used t (j + 1)) None
      in
      let rec descend j rev_acc =
        let rev_acc = j :: rev_acc in
        match last_child_le j with
        | Some c when c = x -> List.rev rev_acc
        | Some c -> descend c rev_acc
        | None -> List.rev rev_acc (* x not in this store: defensive *)
      in
      descend root []
    end

  let parent_of t ctx =
    if S.level t ctx = 0 then None
    else
      match List.rev (ancestors_of t ctx) with
      | parent :: _ -> Some parent
      | [] -> None

  let self _t ctxs = sort_uniq ctxs

  let fold_children t ctx ~init f =
    let lvl = S.level t ctx in
    let stop = S.extent t in
    let rec go pre acc =
      if pre >= stop then acc
      else
        let l = S.level t pre in
        if l <= lvl then acc
        else if l = lvl + 1 then go (sibling_hop t pre) (f acc pre)
        else go (sibling_hop t pre) acc (* undershoot: deeper node, hop on *)
    in
    go (S.next_used t (ctx + 1)) init

  let cons acc c = c :: acc

  let children_of t ctx = List.rev (fold_children t ctx ~init:[] cons)

  let children t ctxs =
    sort_uniq (List.fold_left (fun acc ctx -> fold_children t ctx ~init:acc cons) [] ctxs)

  (* Staircase pruning: a context inside the previously scanned subtree
     contributes nothing new. The surviving regions [(ctx, subtree_end ctx)]
     are pairwise disjoint and sorted. *)
  let prune_covered t ctxs =
    let scanned_to = ref (-1) in
    List.filter_map
      (fun ctx ->
        if ctx < !scanned_to then None
        else begin
          scanned_to := subtree_end t ctx;
          Some (ctx, !scanned_to)
        end)
      (sort_uniq ctxs)

  let descendants t ?(or_self = false) ctxs =
    List.concat_map
      (fun (ctx, hi) ->
        let below = used_in t ~lo:(ctx + 1) ~hi (fun _ -> true) in
        if or_self then ctx :: below else below)
      (prune_covered t ctxs)

  let parent t ctxs = sort_uniq (List.filter_map (parent_of t) ctxs)

  let ancestors t ?(or_self = false) ctxs =
    sort_uniq
      (List.concat_map
         (fun c -> if or_self then c :: ancestors_of t c else ancestors_of t c)
         ctxs)

  let following t ctxs =
    (* union over contexts = everything after the earliest subtree end *)
    match sort_uniq ctxs with
    | [] -> []
    | ctxs ->
      let e = List.fold_left (fun acc c -> min acc (subtree_end t c)) max_int ctxs in
      used_in t ~lo:e ~hi:(S.extent t) (fun _ -> true)

  let preceding t ctxs =
    (* union over contexts = preceding of the last context (nested contexts
       only shrink the set; see the region argument in the test suite) *)
    match List.rev (sort_uniq ctxs) with
    | [] -> []
    | cmax :: _ ->
      let anc = ancestors_of t cmax in
      used_in t ~lo:0 ~hi:cmax (fun pre -> not (List.mem pre anc))

  let following_siblings_of t ctx =
    let lvl = S.level t ctx in
    let stop = S.extent t in
    let rec go pre acc =
      if pre >= stop || S.level t pre < lvl then List.rev acc
      else if S.level t pre = lvl then go (sibling_hop t pre) (pre :: acc)
      else go (sibling_hop t pre) acc
    in
    go (sibling_hop t ctx) []

  let following_siblings t ctxs =
    sort_uniq (List.concat_map (following_siblings_of t) ctxs)

  let preceding_siblings_of t ctx =
    match parent_of t ctx with
    | None -> []
    | Some p -> List.filter (fun c -> c < ctx) (children_of t p)

  let preceding_siblings t ctxs =
    sort_uniq (List.concat_map (preceding_siblings_of t) ctxs)

  (* Results come back in *axis order* (reverse axes nearest-first), which is
     the order positional predicates count in. *)
  let axis_of_one t axis ctx =
    match (axis : Xpath.Xpath_ast.axis) with
    | Xpath.Xpath_ast.Self -> [ ctx ]
    | Xpath.Xpath_ast.Child -> children_of t ctx
    | Xpath.Xpath_ast.Descendant -> descendants t [ ctx ]
    | Xpath.Xpath_ast.Descendant_or_self -> descendants t ~or_self:true [ ctx ]
    | Xpath.Xpath_ast.Parent -> ( match parent_of t ctx with None -> [] | Some p -> [ p ])
    | Xpath.Xpath_ast.Ancestor -> List.rev (ancestors_of t ctx)
    | Xpath.Xpath_ast.Ancestor_or_self -> ctx :: List.rev (ancestors_of t ctx)
    | Xpath.Xpath_ast.Following -> following t [ ctx ]
    | Xpath.Xpath_ast.Preceding -> List.rev (preceding t [ ctx ])
    | Xpath.Xpath_ast.Following_sibling -> following_siblings_of t ctx
    | Xpath.Xpath_ast.Preceding_sibling -> List.rev (preceding_siblings_of t ctx)
    | Xpath.Xpath_ast.Attribute ->
      invalid_arg "Staircase.axis_of_one: attribute axis yields no tree nodes"
end
