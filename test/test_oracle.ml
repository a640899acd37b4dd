(* Differential testing against the naive DOM oracle (Testsupport.Oracle):
   random XPath queries and random XUpdate command lists run through BOTH
   the storage engine and the oracle, which shares no evaluation code with
   lib/core (path-identified nodes, recursive tree walks, textbook
   persistent-tree edits). Properties:

   - query equivalence, sequential and under a forced-cutoff parallel pool
     (every eligible step partitioned, merge machinery always exercised);
   - update equivalence: same affected-count and structurally equal
     documents on success, errors on both sides otherwise;
   - query-after-update equivalence on the mutated stores. *)

module Dom = Xml.Dom
module Qname = Xml.Qname
module Up = Core.Schema_up
module View = Core.View
module Par = Core.Par
module Xupdate = Core.Xupdate
module E = Core.Engine.Make (Core.View)
module Ns = Core.Node_serialize.Make (Core.View)
module Ord = Testsupport.Ord (Core.View)
module O = Testsupport.Oracle
open Xpath.Xpath_ast

(* ----------------------------------------------------- path generators -- *)

let gen_axis =
  QCheck2.Gen.frequency
    [ (6, QCheck2.Gen.return Child);
      (3, QCheck2.Gen.return Descendant);
      (2, QCheck2.Gen.return Descendant_or_self);
      (1, QCheck2.Gen.return Self);
      (1, QCheck2.Gen.return Parent);
      (1, QCheck2.Gen.return Ancestor);
      (1, QCheck2.Gen.return Ancestor_or_self);
      (1, QCheck2.Gen.return Following);
      (1, QCheck2.Gen.return Preceding);
      (1, QCheck2.Gen.return Following_sibling);
      (1, QCheck2.Gen.return Preceding_sibling) ]

let gen_test =
  let open QCheck2.Gen in
  frequency
    [ (6, map (fun n -> Name (Qname.make n)) (oneofa Testsupport.names));
      (2, return Wildcard);
      (1, return Kind_node);
      (1, return Kind_text);
      (1, return Kind_comment);
      (1, oneofl [ Kind_pi None; Kind_pi (Some "pi") ]) ]

let gen_value ~depth gen_path =
  let open QCheck2.Gen in
  frequency
    ([ (2, map (fun i -> Lit_str ("t" ^ string_of_int i)) (int_bound 30));
       (2, map (fun i -> Lit_num (float_of_int i)) (int_bound 9));
       (1, return Ctx_string) ]
    @
    if depth <= 0 then []
    else
      [ (2, map (fun p -> Path_string p) (gen_path (depth - 1)));
        (1, map (fun p -> Count p) (gen_path (depth - 1))) ])

let gen_cmpop = QCheck2.Gen.oneofl [ Eq; Neq; Lt; Le; Gt; Ge ]

let rec gen_bool_pred ~depth gen_path =
  let open QCheck2.Gen in
  if depth <= 0 then
    let* a = gen_value ~depth:0 gen_path in
    let* op = gen_cmpop in
    let* b = gen_value ~depth:0 gen_path in
    return (Cmp (a, op, b))
  else
    frequency
      [ ( 3,
          let* a = gen_value ~depth gen_path in
          let* op = gen_cmpop in
          let* b = gen_value ~depth gen_path in
          return (Cmp (a, op, b)) );
        (2, map (fun p -> Exists p) (gen_path (depth - 1)));
        ( 1,
          let* a = gen_value ~depth gen_path in
          let* b = gen_value ~depth gen_path in
          return (Contains (a, b)) );
        ( 1,
          let* a = gen_bool_pred ~depth:(depth - 1) gen_path in
          let* b = gen_bool_pred ~depth:(depth - 1) gen_path in
          oneofl [ And (a, b); Or (a, b); Not a ] ) ]

let gen_pred ~depth gen_path =
  let open QCheck2.Gen in
  frequency
    ([ (3, map (fun n -> Pos (1 + n)) (int_bound 3)); (1, return Last) ]
    @ if depth <= 0 then [] else [ (6, gen_bool_pred ~depth gen_path) ])

let rec gen_path depth : path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let gen_step =
    let* axis = gen_axis in
    let* test = gen_test in
    let* npreds = frequency [ (5, return 0); (3, return 1); (1, return 2) ] in
    let* preds = list_repeat npreds (gen_pred ~depth (fun d -> gen_path d)) in
    return { axis; test; preds }
  in
  let* absolute = bool in
  let* nsteps = int_range 1 3 in
  let* steps = list_repeat nsteps gen_step in
  let* attr_tail =
    frequency
      [ (4, return None);
        ( 1,
          let* a = oneofa Testsupport.attr_names in
          let* preds =
            frequency
              [ (4, return []);
                (1, map (fun p -> [ p ]) (gen_pred ~depth:1 (fun d -> gen_path d))) ]
          in
          return (Some { axis = Attribute; test = Name (Qname.make a); preds }) ) ]
  in
  let steps = match attr_tail with None -> steps | Some s -> steps @ [ s ] in
  return { absolute; steps }

(* ------------------------------------------------- result normalisation -- *)

(* Both sides map node identities to document-order ordinals: the engine via
   the pre->ordinal table, the oracle via the pre-order path enumeration.
   Lists are compared WITHOUT sorting — the engine's documented result order
   (document order; attribute steps in context-concatenation order) must
   match the oracle's exactly. *)
type norm = N of int | A of int * string * string

let norm_engine v items =
  let tbl, _ = Ord.mapping v in
  List.map
    (function
      | E.Node pre -> N (Hashtbl.find tbl pre)
      | E.Attribute { owner; qn; value } ->
        A (Hashtbl.find tbl owner, Qname.to_string qn, value))
    items

let norm_oracle doc items =
  let tbl = Hashtbl.create 64 in
  List.iteri (fun i p -> Hashtbl.add tbl p i) (O.paths_pre_order doc);
  List.map
    (function
      | O.Node p -> N (Hashtbl.find tbl p)
      | O.Attr { owner; qn; value } ->
        A (Hashtbl.find tbl owner, Qname.to_string qn, value))
    items

let show_norm = function
  | N i -> Printf.sprintf "n%d" i
  | A (i, q, v) -> Printf.sprintf "n%d/@%s='%s'" i q v

let show_norms l = String.concat " " (List.map show_norm l)

(* --------------------------------------------------- query equivalence -- *)

let gen_query_case =
  let open QCheck2.Gen in
  let* d = Testsupport.gen_doc in
  let* p = gen_path 2 in
  return (d, p)

let print_query_case (d, p) =
  Printf.sprintf "path: %s\ndoc: %s" (to_string p) (Testsupport.print_doc d)

let check_query ?par (d, p) =
  let t = Up.of_dom ~page_bits:3 ~fill:0.7 d in
  let v = View.direct t in
  let engine = norm_engine v (E.eval_items v ?par p) in
  let oracle = norm_oracle d (O.eval d p) in
  if engine = oracle then true
  else
    QCheck2.Test.fail_reportf "engine [%s]\noracle [%s]" (show_norms engine)
      (show_norms oracle)

let prop_query =
  QCheck2.Test.make ~name:"random queries: engine = oracle" ~count:300
    ~print:print_query_case gen_query_case (fun c -> check_query c)

(* One long-lived pool shared by every parallel case, cutoffs forced to 1 so
   even tiny documents take the partitioned path. Never shut down: process
   exit reaps the domains. *)
let pool = lazy (Par.create ~range_cutoff:1 ~ctx_cutoff:1 ~domains:3 ())

let prop_query_par =
  QCheck2.Test.make
    ~name:"random queries: parallel engine = oracle (forced cutoffs)"
    ~count:200 ~print:print_query_case gen_query_case (fun c ->
      check_query ~par:(Lazy.force pool) c)

(* -------------------------------------------------- update generators -- *)

let gen_text = QCheck2.Gen.(map (fun i -> "t" ^ string_of_int i) (int_bound 30))

let gen_content_node =
  let open QCheck2.Gen in
  let* depth = int_bound 1 in
  let rec go depth =
    let leaf =
      frequency
        [ (3, map Dom.text gen_text);
          (1, map (fun s -> Dom.Comment s) gen_text);
          (1, map (fun s -> Dom.Pi { target = "pi"; data = s }) gen_text) ]
    in
    let elem =
      let* name = oneofa Testsupport.names in
      let* attrs =
        frequency
          [ (3, return []);
            ( 1,
              let* a = oneofa Testsupport.attr_names in
              let* s = gen_text in
              return [ (Qname.make a, s) ] ) ]
      in
      let* children =
        if depth <= 0 then return [] else list_size (int_bound 2) (go (depth - 1))
      in
      return (Dom.Element { Dom.name = Qname.make name; attrs; children })
    in
    frequency [ (3, elem); (2, leaf) ]
  in
  go depth

(* A content forest: node items, occasionally an xupdate:attribute item
   (valid only for append; sibling inserts must reject it on both sides). *)
let gen_content =
  let open QCheck2.Gen in
  let* nodes =
    list_size (int_bound 2) (map (fun n -> Xupdate.Node n) gen_content_node)
  in
  let* attr =
    frequency
      [ (5, return []);
        ( 1,
          let* a = oneofa Testsupport.attr_names in
          let* s = gen_text in
          return [ Xupdate.Attr (Qname.make a, s) ] ) ]
  in
  return (attr @ nodes)

(* Update targets: short paths so commands actually hit something, but any
   generated path is fair game — unusable targets must error identically on
   both sides. *)
let gen_target =
  let open QCheck2.Gen in
  let* p = gen_path 1 in
  let* nsteps = int_range 1 2 in
  let steps = List.filteri (fun i _ -> i < nsteps) p.steps in
  return { p with steps }

let gen_command =
  let open QCheck2.Gen in
  frequency
    [ (3, map (fun p -> Xupdate.Remove p) gen_target);
      ( 2,
        let* p = gen_target in
        let* c = gen_content in
        return (Xupdate.Insert_before (p, c)) );
      ( 2,
        let* p = gen_target in
        let* c = gen_content in
        return (Xupdate.Insert_after (p, c)) );
      ( 3,
        let* p = gen_target in
        let* child =
          frequency [ (3, return None); (1, map (fun k -> Some (1 + k)) (int_bound 3)) ]
        in
        let* c = gen_content in
        return (Xupdate.Append (p, child, c)) );
      ( 3,
        let* p = gen_target in
        let* s = frequency [ (4, gen_text); (1, return "") ] in
        return (Xupdate.Update (p, s)) );
      ( 2,
        let* p = gen_target in
        let* n = oneof [ oneofa Testsupport.names; oneofa Testsupport.attr_names ] in
        return (Xupdate.Rename (p, Qname.make n)) ) ]

let gen_cmds = QCheck2.Gen.(list_size (int_range 1 3) gen_command)

let show_content c =
  String.concat ""
    (List.map
       (function
         | Xupdate.Node n -> Xml.Xml_serialize.node_to_string n
         | Xupdate.Attr (q, s) ->
           Printf.sprintf "<xupdate:attribute name=%S>%s</xupdate:attribute>"
             (Qname.to_string q) s)
       c)

let show_command = function
  | Xupdate.Remove p -> Printf.sprintf "remove[%s]" (to_string p)
  | Xupdate.Insert_before (p, c) ->
    Printf.sprintf "insert-before[%s]{%s}" (to_string p) (show_content c)
  | Xupdate.Insert_after (p, c) ->
    Printf.sprintf "insert-after[%s]{%s}" (to_string p) (show_content c)
  | Xupdate.Append (p, k, c) ->
    Printf.sprintf "append[%s]%s{%s}" (to_string p)
      (match k with None -> "" | Some k -> Printf.sprintf "@%d" k)
      (show_content c)
  | Xupdate.Update (p, s) -> Printf.sprintf "update[%s]'%s'" (to_string p) s
  | Xupdate.Rename (p, q) ->
    Printf.sprintf "rename[%s]->%s" (to_string p) (Qname.to_string q)

(* ------------------------------------------------- update equivalence -- *)

let apply_engine d cmds =
  let t = Up.of_dom ~page_bits:3 ~fill:0.7 d in
  let v = View.direct t in
  match Xupdate.apply v cmds with
  | n -> (
    match Up.check_integrity t with
    | Ok () -> Ok (t, v, n)
    | Error m -> Error (`Integrity m))
  | exception Xupdate.Apply_error m -> Error (`Apply m)
  (* append's attribute content is applied outside the wrapper that turns
     Update_error into Apply_error — tolerate the raw form too *)
  | exception Core.Update.Update_error m -> Error (`Apply m)

let apply_oracle d cmds =
  match O.apply d cmds with
  | d', n -> Ok (d', n)
  | exception O.Oracle_error m -> Error m

(* Both sides succeed with the same count and structurally equal documents,
   or both fail. (Partial effects on failure are not compared: the engine's
   transactional wrapper in Db rolls them back; here the view is applied to
   directly.) *)
let check_update (d, cmds) =
  match (apply_engine d cmds, apply_oracle d cmds) with
  | Error (`Integrity m), _ -> QCheck2.Test.fail_reportf "engine integrity: %s" m
  | Error (`Apply _), Error _ -> true
  | Error (`Apply m), Ok _ ->
    QCheck2.Test.fail_reportf "engine failed (%s), oracle succeeded" m
  | Ok _, Error m ->
    QCheck2.Test.fail_reportf "oracle failed (%s), engine succeeded" m
  | Ok (_, v, en), Ok (od, onn) ->
    if en <> onn then
      QCheck2.Test.fail_reportf "affected counts differ: engine %d, oracle %d" en
        onn
    else
      let ed = Ns.to_dom v in
      if Dom.equal (Dom.normalize ed) (Dom.normalize od) then true
      else
        QCheck2.Test.fail_reportf "documents diverge\nengine: %s\noracle: %s"
          (Xml.Xml_serialize.to_string ed)
          (Xml.Xml_serialize.to_string od)

let gen_update_case =
  let open QCheck2.Gen in
  let* d = Testsupport.gen_doc in
  let* cmds = gen_cmds in
  return (d, cmds)

let print_update_case (d, cmds) =
  Printf.sprintf "cmds: %s\ndoc: %s"
    (String.concat " ; " (List.map show_command cmds))
    (Testsupport.print_doc d)

let prop_update =
  QCheck2.Test.make ~name:"random updates: engine = oracle" ~count:300
    ~print:print_update_case gen_update_case check_update

(* ------------------------------------------- query after update -------- *)

let gen_qau_case =
  let open QCheck2.Gen in
  let* d = Testsupport.gen_doc in
  let* cmds = gen_cmds in
  let* p = gen_path 2 in
  return (d, cmds, p)

let print_qau_case (d, cmds, p) =
  Printf.sprintf "%s\npath: %s" (print_update_case (d, cmds)) (to_string p)

(* The mutated stores stay equivalent as query targets — sequentially and
   under the parallel pool. Failing updates are the update property's
   business; here they pass trivially. *)
let check_qau (d, cmds, p) =
  match (apply_engine d cmds, apply_oracle d cmds) with
  | Error _, _ | _, Error _ -> true
  | Ok (_, v, _), Ok (od, _) ->
    (* od is NOT normalised: adjacent text nodes created by the update must
       line up with the engine's unmerged text slots *)
    let seq = norm_engine v (E.eval_items v p) in
    let par = norm_engine v (E.eval_items v ~par:(Lazy.force pool) p) in
    let oracle = norm_oracle od (O.eval od p) in
    if seq <> oracle then
      QCheck2.Test.fail_reportf "after update: engine [%s] oracle [%s]"
        (show_norms seq) (show_norms oracle)
    else if par <> seq then
      QCheck2.Test.fail_reportf "after update: par [%s] seq [%s]"
        (show_norms par) (show_norms seq)
    else true

let prop_query_after_update =
  QCheck2.Test.make
    ~name:"queries after random updates: engine (seq+par) = oracle" ~count:200
    ~print:print_qau_case gen_qau_case check_qau

(* --------------------------------------- cached queries vs the oracle -- *)

(* The full Db stack with the epoch-keyed result cache on, sized tiny
   (2 entries) so interleaved rounds constantly evict: each round repeats a
   query from a small shared pool twice (second run served from cache inside
   the same pinned session), applies a random update batch to both sides,
   and re-runs the query — a stale cached result surviving the commit, or a
   cache entry outliving an eviction/re-insert cycle, breaks equivalence
   immediately. Queries go through the string surface, so both sides
   evaluate the re-parsed path; unparseable renderings skip the round. *)
module Db = Core.Db

let gen_cached_case =
  let open QCheck2.Gen in
  let* d = Testsupport.gen_doc in
  let* pool_paths = list_repeat 4 (gen_path 2) in
  let* rounds = list_size (int_range 2 5) (pair gen_cmds (int_bound 3)) in
  return (d, pool_paths, rounds)

let print_cached_case (d, pool_paths, rounds) =
  Printf.sprintf "paths: %s\nrounds: %s\ndoc: %s"
    (String.concat " | " (List.map to_string pool_paths))
    (String.concat " ; "
       (List.map
          (fun (cmds, pi) ->
            Printf.sprintf "q%d after {%s}" pi
              (String.concat " ; " (List.map show_command cmds)))
          rounds))
    (Testsupport.print_doc d)

let check_cached (d, pool_paths, rounds) =
  let db =
    Db.create ~page_bits:3 ~fill:0.7
      ~cache:(Db.cache_config ~entries:2 ~bytes:2048 ()) d
  in
  let od = ref d in
  let check_round p src =
    let e1, e2 =
      Db.get_exn (Db.read_txn db (fun s ->
          let v = Db.Session.view s in
          let a = norm_engine v (Db.get_exn (Db.Session.query s src)) in
          let b = norm_engine v (Db.get_exn (Db.Session.query s src)) in
          (a, b)))
    in
    let oracle = norm_oracle !od (O.eval !od p) in
    if e1 <> oracle then
      QCheck2.Test.fail_reportf "cached: engine [%s] oracle [%s] (%s)"
        (show_norms e1) (show_norms oracle) src
    else if e2 <> e1 then
      QCheck2.Test.fail_reportf "cached: repeat [%s] differs from first [%s] (%s)"
        (show_norms e2) (show_norms e1) src
    else true
  in
  List.for_all
    (fun (cmds, pi) ->
      let p = List.nth pool_paths pi in
      let src = to_string p in
      match Xpath.Xpath_parser.parse src with
      | exception _ -> true
      | p ->
        check_round p src
        && (match
              ( Db.write_txn db (fun s ->
                    Xupdate.apply (Db.Session.view s) cmds),
                apply_oracle !od cmds )
            with
           | Ok en, Ok (od', onn) ->
             od := od';
             en = onn
             || QCheck2.Test.fail_reportf
                  "cached: affected counts differ: engine %d, oracle %d" en onn
           | Error _, Error _ -> true
           | Ok _, Error m ->
             QCheck2.Test.fail_reportf
               "cached: oracle failed (%s), engine succeeded" m
           | Error e, Ok _ ->
             QCheck2.Test.fail_reportf
               "cached: engine failed (%s), oracle succeeded"
               (Db.Error.to_string e))
        && check_round p src)
    rounds

let prop_cached =
  QCheck2.Test.make
    ~name:"interleaved updates + repeated queries: cached Db = oracle"
    ~count:150 ~print:print_cached_case gen_cached_case check_cached

(* ------------------------------------- the document catalog vs oracles -- *)

(* 2-3 documents in one catalog (shared commit lane and cache), each paired
   with its own independent DOM oracle. Rounds interleave scoped updates
   with queries over EVERY document: a commit that leaked into another
   document's state, or a cache entry served across documents or across one
   document's epoch bump, breaks equivalence. When the cache is live (the
   XQDB_CACHE=off override disables it; CI runs this property both ways) the
   per-document epoch claim is asserted directly: re-querying the untouched
   documents after a commit must produce no cache misses. *)

let doc_name i = if i = 0 then Db.default_doc else Printf.sprintf "d%d" i

let gen_multidoc_case =
  let open QCheck2.Gen in
  let* ndocs = int_range 2 3 in
  let* docs = list_repeat ndocs Testsupport.gen_doc in
  let* pool_paths = list_repeat 3 (gen_path 2) in
  let* rounds =
    list_size (int_range 2 5)
      (triple (int_bound (ndocs - 1)) gen_cmds (int_bound 2))
  in
  return (docs, pool_paths, rounds)

let print_multidoc_case (docs, pool_paths, rounds) =
  Printf.sprintf "paths: %s\nrounds: %s\ndocs:\n%s"
    (String.concat " | " (List.map to_string pool_paths))
    (String.concat " ; "
       (List.map
          (fun (di, cmds, pi) ->
            Printf.sprintf "%s: q%d after {%s}" (doc_name di) pi
              (String.concat " ; " (List.map show_command cmds)))
          rounds))
    (String.concat "\n"
       (List.mapi
          (fun i d -> Printf.sprintf "  %s: %s" (doc_name i) (Testsupport.print_doc d))
          docs))

let check_multidoc (docs, pool_paths, rounds) =
  let db = Db.empty ~cache:(Db.cache_config ~entries:32 ~bytes:(1 lsl 16) ()) () in
  List.iteri
    (fun i d ->
      match Db.create_doc ~page_bits:3 ~fill:0.7 db (doc_name i) d with
      | Ok () -> ()
      | Error e -> failwith (Db.Error.to_string e))
    docs;
  let names = List.mapi (fun i _ -> (i, doc_name i)) docs in
  let oracles = Array.of_list docs in
  let stats () =
    match Db.cache_stats db with
    | Some s -> s
    | None ->
      { Core.Qcache.hits = 0; misses = 0; evictions = 0; entries = 0;
        plan_hits = 0; plan_misses = 0; singleflight_waits = 0; bytes = 0;
        max_entries = 0; max_bytes = 0; max_plans = 0 }
  in
  (* XQDB_CACHE=off strips the cache entirely: detect whether a repeated
     query is actually served, and only then assert miss counts *)
  let cache_live =
    let h0 = (stats ()).Core.Qcache.hits in
    ignore (Db.query_count db "/*");
    ignore (Db.query_count db "/*");
    (stats ()).Core.Qcache.hits > h0
  in
  let query_doc name src =
    Db.get_exn (Db.read_txn ~doc:name db (fun s ->
        let v = Db.Session.view s in
        norm_engine v (Db.get_exn (Db.Session.query s src))))
  in
  let check_all p src =
    List.for_all
      (fun (i, name) ->
        let e = query_doc name src in
        let o = norm_oracle oracles.(i) (O.eval oracles.(i) p) in
        e = o
        || QCheck2.Test.fail_reportf "doc %s: engine [%s] oracle [%s] (%s)" name
             (show_norms e) (show_norms o) src)
      names
  in
  List.for_all
    (fun (di, cmds, pi) ->
      let p0 = List.nth pool_paths pi in
      let src = to_string p0 in
      match Xpath.Xpath_parser.parse src with
      | exception _ -> true
      | p ->
        check_all p src
        && (match
              ( Db.write_txn ~doc:(doc_name di) db (fun s ->
                    Xupdate.apply (Db.Session.view s) cmds),
                apply_oracle oracles.(di) cmds )
            with
           | Ok en, Ok (od', onn) ->
             oracles.(di) <- od';
             en = onn
             || QCheck2.Test.fail_reportf
                  "multidoc: affected counts differ on %s: engine %d, oracle %d"
                  (doc_name di) en onn
           | Error _, Error _ -> true
           | Ok _, Error m ->
             QCheck2.Test.fail_reportf
               "multidoc: oracle failed (%s), engine succeeded on %s" m
               (doc_name di)
           | Error e, Ok _ ->
             QCheck2.Test.fail_reportf
               "multidoc: engine failed (%s), oracle succeeded on %s"
               (Db.Error.to_string e) (doc_name di))
        && begin
             (* per-document epochs: the commit to [di] (if any) must not
                invalidate the other documents' warm entries *)
             let others = List.filter (fun (i, _) -> i <> di) names in
             let before = stats () in
             List.iter (fun (_, n) -> ignore (query_doc n src)) others;
             let after = stats () in
             (not cache_live)
             || after.Core.Qcache.misses = before.Core.Qcache.misses
             || QCheck2.Test.fail_reportf
                  "a commit to %s cost %d cache miss(es) on other documents"
                  (doc_name di)
                  (after.Core.Qcache.misses - before.Core.Qcache.misses)
           end
        && check_all p src)
    rounds

let prop_multidoc =
  QCheck2.Test.make
    ~name:"interleaved updates across documents: catalog = independent oracles"
    ~count:100 ~print:print_multidoc_case gen_multidoc_case check_multidoc

let () =
  Alcotest.run "oracle"
    [ ( "queries",
        [ Testsupport.qcheck_case prop_query;
          Testsupport.qcheck_case prop_query_par ] );
      ( "updates",
        [ Testsupport.qcheck_case prop_update;
          Testsupport.qcheck_case prop_query_after_update ] );
      ("cache", [ Testsupport.qcheck_case prop_cached ]);
      ("multidoc", [ Testsupport.qcheck_case prop_multidoc ])
    ]
