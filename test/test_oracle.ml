(* Differential testing against the naive DOM oracle (Testsupport.Oracle):
   random XPath queries and random XUpdate command lists run through BOTH
   the storage engine and the oracle, which shares no evaluation code with
   lib/core (path-identified nodes, recursive tree walks, textbook
   persistent-tree edits). Properties:

   - query equivalence, sequential and under a forced-cutoff parallel pool
     (every eligible step partitioned, merge machinery always exercised);
   - update equivalence: same affected-count and structurally equal
     documents on success, errors on both sides otherwise;
   - rollback: a failing script leaves the store byte-identical;
   - query-after-update equivalence on the mutated stores. *)

module Dom = Xml.Dom
module Qname = Xml.Qname
module Up = Core.Schema_up
module View = Core.View
module Par = Core.Par
module Xupdate = Core.Xupdate
module Txn = Core.Txn
module E = Core.Engine.Make (Core.View)
module Ns = Core.Node_serialize.Make (Core.View)
module Ord = Testsupport.Ord (Core.View)
module O = Testsupport.Oracle
open Xpath.Xpath_ast
open Testsupport.Gen

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
  let* d = gen_doc in
  let* p = gen_path 2 in
  return (d, p)

let print_query_case (d, p) =
  Printf.sprintf "path: %s\ndoc: %s" (to_string p) (print_doc d)

let check_query ?par (d, p) =
  let t = Up.of_dom ~page_bits:3 ~fill:0.7 d in
  let v = Testsupport.view t in
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

(* ------------------------------------------------- update equivalence -- *)

(* The engine runs a script the way every shipped entry point does: one
   write transaction on the store's manager, committed on success and
   rolled back on error. *)
let run_script t cmds = Txn.with_write (Txn.manager t) (fun v -> Xupdate.apply v cmds)

let apply_engine d cmds =
  let t = Up.of_dom ~page_bits:3 ~fill:0.7 d in
  match run_script t cmds with
  | n -> (
    match Up.check_integrity t with
    | Ok () -> Ok (t, Testsupport.view t, n)
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
   or both fail. (What a failure leaves behind is prop_rollback's business.) *)
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
  let* d = gen_doc in
  let* cmds = gen_cmds in
  return (d, cmds)

let print_update_case (d, cmds) =
  Printf.sprintf "cmds: %s\ndoc: %s"
    (String.concat " ; " (List.map show_command cmds))
    (print_doc d)

let prop_update =
  QCheck2.Test.make ~name:"random updates: engine = oracle" ~count:300
    ~print:print_update_case gen_update_case check_update

(* A script that fails part-way (any command erroring after earlier ones
   applied) must leave no trace: the store serialises byte-identically to
   its state before the script and stays internally consistent. *)
let check_rollback (d, cmds) =
  let t = Up.of_dom ~page_bits:3 ~fill:0.7 d in
  let serialize () = Xml.Xml_serialize.to_string (Ns.to_dom (Testsupport.view t)) in
  let before = serialize () in
  match run_script t cmds with
  | _ -> true
  | exception (Xupdate.Apply_error _ | Core.Update.Update_error _) -> (
    let after = serialize () in
    if not (String.equal before after) then
      QCheck2.Test.fail_reportf "failed script left effects\nbefore: %s\nafter:  %s"
        before after
    else
      match Up.check_integrity t with
      | Ok () -> true
      | Error m -> QCheck2.Test.fail_reportf "integrity after rollback: %s" m)

let prop_rollback =
  QCheck2.Test.make ~name:"failed random updates roll back completely" ~count:300
    ~print:print_update_case gen_update_case check_rollback

(* ------------------------------------------- query after update -------- *)

let gen_qau_case =
  let open QCheck2.Gen in
  let* d = gen_doc in
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
  let* d = gen_doc in
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
    (print_doc d)

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
  let* docs = list_repeat ndocs gen_doc in
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
          (fun i d -> Printf.sprintf "  %s: %s" (doc_name i) (print_doc d))
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
          Testsupport.qcheck_case prop_rollback;
          Testsupport.qcheck_case prop_query_after_update ] );
      ("cache", [ Testsupport.qcheck_case prop_cached ]);
      ("multidoc", [ Testsupport.qcheck_case prop_multidoc ])
    ]
