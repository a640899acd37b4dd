(* Core.Qcache + its Db wiring: epoch-keyed invalidation, LRU entry/byte
   bounds, in-place upgrades, single-flight deduplication under domains,
   write-session bypass, rendered QUERY bodies and their byte charge, the
   EXPLAIN/PROFILE cache annotation, the XQDB_CACHE override, and the
   [version.epoch_bump] failpoint proving the bump-before-unlock ordering the
   cache's safety argument rests on.

   CI also runs this suite under XQDB_CACHE=force and XQDB_CACHE=off. The
   Db-wiring cases ask the store whether it got a cache ([live]) and check
   the uncached behaviour when it did not. *)

module Db = Core.Db
module Qcache = Core.Qcache
module Session = Core.Db.Session

let sized () = Qcache.create ~size:String.length ()

let live db = Db.cache_stats db <> None

let renders () = Obs.value (Obs.counter "db.renders")

(* ------------------------------------------------------- epoch keying -- *)

let test_epoch_keys () =
  let c = sized () in
  let calls = ref 0 in
  let v1 =
    Qcache.with_result c ~query:"q" ~epoch:1 (fun () -> incr calls; "e1")
  in
  let v1' =
    Qcache.with_result c ~query:"q" ~epoch:1 (fun () -> incr calls; "never")
  in
  let v2 =
    Qcache.with_result c ~query:"q" ~epoch:2 (fun () -> incr calls; "e2")
  in
  Alcotest.(check string) "first compute" "e1" v1;
  Alcotest.(check string) "same epoch is served from cache" "e1" v1';
  Alcotest.(check string) "new epoch recomputes" "e2" v2;
  Alcotest.(check int) "two computes" 2 !calls;
  Alcotest.(check (option string)) "probe hits" (Some "e1")
    (Qcache.find c ~query:"q" ~epoch:1);
  Alcotest.(check (option string)) "unseen epoch misses" None
    (Qcache.find c ~query:"q" ~epoch:3);
  let st = Qcache.stats c in
  Alcotest.(check int) "two result entries" 2 st.Qcache.entries

let test_plan_tier () =
  let c = sized () in
  let parses = ref 0 in
  let parse s =
    incr parses;
    Xpath.Xpath_parser.parse s
  in
  let p1 = Qcache.plan c "//a" parse in
  let p2 = Qcache.plan c "//a" parse in
  Alcotest.(check bool) "same compiled plan" true (p1 = p2);
  Alcotest.(check int) "parsed once" 1 !parses;
  (* parse failures propagate and cache nothing *)
  (match Qcache.plan c "///" parse with
  | _ -> Alcotest.fail "expected Syntax_error"
  | exception Xpath.Xpath_parser.Syntax_error _ -> ());
  (match Qcache.plan c "///" parse with
  | _ -> Alcotest.fail "expected Syntax_error"
  | exception Xpath.Xpath_parser.Syntax_error _ -> ());
  Alcotest.(check int) "failure re-parses every time" 3 !parses

(* ------------------------------------------------------------- bounds -- *)

let test_entry_bound () =
  let c = Qcache.create ~max_entries:2 ~size:String.length () in
  ignore (Qcache.with_result c ~query:"a" ~epoch:1 (fun () -> "va"));
  ignore (Qcache.with_result c ~query:"b" ~epoch:1 (fun () -> "vb"));
  (* refresh a's recency so b is the LRU victim *)
  ignore (Qcache.find c ~query:"a" ~epoch:1);
  ignore (Qcache.with_result c ~query:"c" ~epoch:1 (fun () -> "vc"));
  Alcotest.(check (option string)) "recent entry kept" (Some "va")
    (Qcache.find c ~query:"a" ~epoch:1);
  Alcotest.(check (option string)) "LRU entry evicted" None
    (Qcache.find c ~query:"b" ~epoch:1);
  Alcotest.(check (option string)) "new entry present" (Some "vc")
    (Qcache.find c ~query:"c" ~epoch:1);
  let st = Qcache.stats c in
  Alcotest.(check int) "entry bound held" 2 st.Qcache.entries;
  Alcotest.(check int) "one eviction" 1 st.Qcache.evictions

let test_byte_bound () =
  let c = Qcache.create ~max_entries:100 ~max_bytes:10 ~size:String.length () in
  ignore (Qcache.with_result c ~query:"a" ~epoch:1 (fun () -> "123456"));
  ignore (Qcache.with_result c ~query:"b" ~epoch:1 (fun () -> "123456"));
  Alcotest.(check (option string)) "byte bound evicted the older entry" None
    (Qcache.find c ~query:"a" ~epoch:1);
  Alcotest.(check (option string)) "newer entry resident" (Some "123456")
    (Qcache.find c ~query:"b" ~epoch:1);
  (* a single result over the whole budget is returned but never stored *)
  let v =
    Qcache.with_result c ~query:"big" ~epoch:1 (fun () -> String.make 20 'x')
  in
  Alcotest.(check int) "oversized result returned" 20 (String.length v);
  Alcotest.(check (option string)) "oversized result not cached" None
    (Qcache.find c ~query:"big" ~epoch:1);
  let st = Qcache.stats c in
  Alcotest.(check bool) "byte budget respected" true (st.Qcache.bytes <= 10)

(* [replace] upgrades a resident entry and recharges its size; growing past
   the byte bound evicts least-recent entries, never the upgraded one. *)
let test_replace_upgrade () =
  let c =
    Qcache.create ~max_entries:100 ~max_bytes:100 ~size:String.length ()
  in
  let put q =
    Qcache.with_result c ~query:q ~epoch:1 (fun () -> String.make 30 q.[0])
  in
  let a = put "a" and b = put "b" and cv = put "c" in
  ignore (a, b);
  Alcotest.(check int) "three 30-byte entries" 90 (Qcache.stats c).Qcache.bytes;
  let bigger = String.make 50 'C' in
  Qcache.replace c ~query:"c" ~epoch:1 ~old:cv bigger;
  let st = Qcache.stats c in
  Alcotest.(check (option string)) "upgraded value served" (Some bigger)
    (Qcache.find c ~query:"c" ~epoch:1);
  Alcotest.(check (option string)) "LRU entry evicted by the upgrade" None
    (Qcache.find c ~query:"a" ~epoch:1);
  Alcotest.(check int) "one eviction" 1 st.Qcache.evictions;
  Alcotest.(check int) "bytes recharged" 80 st.Qcache.bytes;
  Alcotest.(check int) "two entries" 2 st.Qcache.entries;
  (* only the value the caller read is replaced *)
  Qcache.replace c ~query:"c" ~epoch:1 ~old:cv (String.make 10 'x');
  Alcotest.(check (option string)) "stale old: no change" (Some bigger)
    (Qcache.find c ~query:"c" ~epoch:1);
  Qcache.replace c ~query:"a" ~epoch:1 ~old:a "back";
  Alcotest.(check (option string)) "a gone entry is not re-inserted" None
    (Qcache.find c ~query:"a" ~epoch:1);
  (* a value over the whole budget is not stored: the old one stays *)
  Qcache.replace c ~query:"c" ~epoch:1 ~old:bigger (String.make 200 'z');
  Alcotest.(check (option string)) "oversized upgrade refused" (Some bigger)
    (Qcache.find c ~query:"c" ~epoch:1);
  Alcotest.(check int) "bytes unchanged" 80 (Qcache.stats c).Qcache.bytes

let test_clear_and_validation () =
  let c = Qcache.create ~size:String.length () in
  ignore (Qcache.with_result c ~query:"a" ~epoch:1 (fun () -> "v"));
  Qcache.clear c;
  Alcotest.(check (option string)) "cleared" None
    (Qcache.find c ~query:"a" ~epoch:1);
  let st = Qcache.stats c in
  Alcotest.(check int) "no entries" 0 st.Qcache.entries;
  Alcotest.(check int) "no bytes" 0 st.Qcache.bytes;
  Alcotest.(check int) "miss counters survive clear" 1 st.Qcache.misses;
  Alcotest.check_raises "bounds must be positive"
    (Invalid_argument "Qcache.create: bounds must be positive") (fun () ->
      ignore (Qcache.create ~max_entries:0 ~size:String.length ()))

(* ------------------------------------------------------- single-flight -- *)

let test_single_flight_dedup () =
  let c = sized () in
  let computes = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    Thread.delay 0.15;
    "value"
  in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Qcache.with_result c ~query:"q" ~epoch:1 compute))
  in
  let vals = List.map Domain.join doms in
  List.iter (fun v -> Alcotest.(check string) "shared value" "value" v) vals;
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get computes);
  let st = Qcache.stats c in
  Alcotest.(check bool) "waiters blocked on the in-flight compute" true
    (st.Qcache.singleflight_waits >= 1)

let test_single_flight_failure_recovery () =
  let c = sized () in
  (* a failing compute propagates, caches nothing, and leaves no stuck
     ticket behind *)
  (match
     Qcache.with_result c ~query:"q" ~epoch:1 (fun () -> failwith "boom")
   with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  Alcotest.(check (option string)) "nothing cached after failure" None
    (Qcache.find c ~query:"q" ~epoch:1);
  Alcotest.(check string) "key usable again" "ok"
    (Qcache.with_result c ~query:"q" ~epoch:1 (fun () -> "ok"));
  (* concurrent: the computer fails, a blocked waiter takes over *)
  let c = sized () in
  let attempts = Atomic.make 0 in
  let compute () =
    let n = Atomic.fetch_and_add attempts 1 in
    Thread.delay 0.1;
    if n = 0 then failwith "boom" else "ok"
  in
  let guarded () =
    match Qcache.with_result c ~query:"q" ~epoch:1 compute with
    | v -> Ok v
    | exception Failure m -> Error m
  in
  let d1 = Domain.spawn guarded in
  Thread.delay 0.03;
  let d2 = Domain.spawn guarded in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check bool) "first caller saw the failure" true
    (r1 = Error "boom");
  Alcotest.(check bool) "waiter retried and succeeded" true (r2 = Ok "ok")

(* ---------------------------------------------------------- Db wiring -- *)

let doc = "<r><a>one</a><a>two</a><b/></r>"

let append_a =
  {|<xupdate:modifications><xupdate:append select="/r"><a>three</a></xupdate:append></xupdate:modifications>|}

let test_db_roundtrip () =
  let db = Db.of_xml ~cache:(Db.cache_config ()) doc in
  Option.iter
    (fun s0 -> Alcotest.(check int) "fresh cache" 0 s0.Qcache.entries)
    (Db.cache_stats db);
  let r1 = Db.get_exn (Db.query_strings db "/r/a/text()") in
  let r2 = Db.get_exn (Db.query_strings db "/r/a/text()") in
  Alcotest.(check (list string)) "repeat equals first" r1 r2;
  Option.iter
    (fun s1 ->
      Alcotest.(check bool) "repeat query hit" true (s1.Qcache.hits >= 1))
    (Db.cache_stats db);
  (* a commit advances the epoch: same text re-evaluates and sees the write *)
  ignore (Db.get_exn (Db.update db append_a));
  Alcotest.(check (list string)) "post-commit query re-evaluated"
    [ "one"; "two"; "three" ]
    (Db.get_exn (Db.query_strings db "/r/a/text()"))

let test_write_session_bypass () =
  let db = Db.of_xml ~cache:(Db.cache_config ()) doc in
  (* warm the cache with the committed state *)
  Alcotest.(check int) "committed count" 2 (Db.get_exn (Db.query_count db "/r/a"));
  Db.get_exn (Db.write_txn db (fun s ->
      Alcotest.(check bool) "write session is uncached" false
        (Session.cached s);
      ignore (Db.get_exn (Session.update s append_a));
      (* the session must see its own staged write, not the cached result *)
      Alcotest.(check int) "own write visible" 3
        (Db.get_exn (Session.count s "/r/a"))));
  Alcotest.(check int) "committed afterwards" 3
    (Db.get_exn (Db.query_count db "/r/a"))

let annotation db src =
  let _, p = Db.get_exn (Db.query_profiled db src) in
  Option.map Core.Profile.cache_name p.Core.Profile.cache

let test_profile_annotation () =
  let db = Db.of_xml ~cache:(Db.cache_config ()) doc in
  let expect name = if live db then Some name else None in
  Alcotest.(check (option string)) "first run is a miss" (expect "miss")
    (annotation db "/r/a");
  let items, p2 = Db.get_exn (Db.query_profiled db "/r/a") in
  Alcotest.(check (option string)) "second run is a hit" (expect "hit")
    (Option.map Core.Profile.cache_name p2.Core.Profile.cache);
  Alcotest.(check int) "hit still carries the result" 2 (List.length items);
  if live db then begin
    Alcotest.(check bool) "nothing evaluated on a hit" true
      (p2.Core.Profile.steps = []);
    let rendered = Core.Profile.render_explain p2 in
    Alcotest.(check bool) "explain shows the hit" true
      (let n = String.length rendered in
       let needle = "cache: hit" and nn = 10 in
       let rec go i =
         i + nn <= n && (String.sub rendered i nn = needle || go (i + 1))
       in
       go 0)
  end;
  (* a store without a cache never annotates *)
  let db' = Db.of_xml doc in
  Alcotest.(check bool) "annotated iff the store has a cache" (live db')
    (annotation db' "/r/a" <> None)

(* ------------------------------------------------------ rendered bodies -- *)

let render db src =
  Db.get_exn (Db.get_exn (Db.read_txn db (fun s -> Session.render s src)))

let body_of db src =
  Db.get_exn
    (Db.read_txn db (fun s ->
         let items = Db.get_exn (Session.query s src) in
         String.concat "\n"
           (string_of_int (List.length items)
           :: List.map (Session.serialize_item s) items)))

(* A QUERY body is rendered once per (query, epoch): a miss stores it, a hit
   serves it, and the entry is charged its length. *)
let test_render_cached () =
  let db = Db.of_xml ~cache:(Db.cache_config ()) doc in
  let r0 = renders () in
  let b1 = render db "/r/a" in
  let b2 = render db "/r/a" in
  Alcotest.(check string) "body: count line, then one line per item"
    "2\n<a>one</a>\n<a>two</a>" b1;
  Alcotest.(check string) "hit body identical" b1 b2;
  Alcotest.(check int) "rendered once (every time without a cache)"
    (if live db then 1 else 2) (renders () - r0);
  Alcotest.(check (option string)) "EXPLAIN of a rendered entry is a hit"
    (if live db then Some "hit" else None)
    (annotation db "/r/a");
  Alcotest.(check string) "query and render agree" (body_of db "/r/a") b1;
  ignore (Db.get_exn (Db.update db append_a));
  Alcotest.(check string) "a commit re-renders the new state"
    "3\n<a>one</a>\n<a>two</a>\n<a>three</a>" (render db "/r/a")

(* An entry filled by [query] has no body: the first render upgrades it, and
   the upgrade charges exactly the body's length on top of the items. *)
let test_render_upgrade_charge () =
  let db = Db.of_xml ~cache:(Db.cache_config ()) doc in
  ignore (Db.get_exn (Db.query db "//a"));
  let bytes () =
    Option.fold ~none:0 ~some:(fun s -> s.Qcache.bytes) (Db.cache_stats db)
  in
  let items_only = bytes () in
  let r0 = renders () in
  let body = render db "//a" in
  Alcotest.(check int) "upgrade renders once" 1 (renders () - r0);
  if live db then
    Alcotest.(check int) "charge = item estimate + body length"
      (items_only + String.length body) (bytes ());
  let again = render db "//a" in
  Alcotest.(check string) "upgraded body served" body again;
  Alcotest.(check int) "no render after the upgrade"
    (if live db then 1 else 2) (renders () - r0)

(* A body that does not fit the byte bound is returned, never stored. *)
let test_render_oversized () =
  let doc = "<r><t>" ^ String.make 300 'x' ^ "</t></r>" in
  let db = Db.of_xml ~cache:(Db.cache_config ~bytes:200 ()) doc in
  ignore (Db.get_exn (Db.query db "/r"));
  let resident () =
    Option.map (fun s -> (s.Qcache.entries, s.Qcache.bytes)) (Db.cache_stats db)
  in
  let before = resident () in
  let body = render db "/r" in
  Alcotest.(check bool) "body larger than the bound" true
    (String.length body > 200);
  Alcotest.(check string) "oversized body returned" (body_of db "/r") body;
  Alcotest.(check bool) "cache unchanged" true (before = resident ())

let test_env_override () =
  let saved = Option.value ~default:"" (Sys.getenv_opt "XQDB_CACHE") in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "XQDB_CACHE" saved)
    (fun () ->
      Unix.putenv "XQDB_CACHE" "off";
      let db = Db.of_xml ~cache:(Db.cache_config ()) doc in
      Alcotest.(check bool) "XQDB_CACHE=off wins over ?cache" true
        (Db.cache_stats db = None);
      Unix.putenv "XQDB_CACHE" "force";
      let db = Db.of_xml doc in
      Alcotest.(check bool) "XQDB_CACHE=force enables a default cache" true
        (Db.cache_stats db <> None))

let test_vacuum_drops_cache () =
  let db = Db.of_xml ~cache:(Db.cache_config ()) doc in
  let entries () = Option.map (fun s -> s.Qcache.entries) (Db.cache_stats db) in
  ignore (Db.get_exn (Db.query_count db "/r/a"));
  Alcotest.(check bool) "entry resident" (live db)
    (entries () <> None && entries () <> Some 0);
  Db.vacuum db;
  Alcotest.(check (option int)) "vacuum drops the cache"
    (if live db then Some 0 else None) (entries ());
  Alcotest.(check int) "store intact" 2 (Db.get_exn (Db.query_count db "/r/a"))

(* --------------------------------------------- epoch-bump ordering ------ *)

(* The cache is safe because [Version.commit_end] installs the new epoch
   before the commit mutex is released. Stretch exactly that window with a
   Delay at [version.epoch_bump]: while the writer sleeps there, the base
   columns already carry the new state but no new descriptor exists — a
   reader pinning now must get the OLD epoch, and both its cached and its
   freshly evaluated answers must show the pre-commit state. *)
let test_epoch_bump_ordering () =
  let db = Db.of_xml ~cache:(Db.cache_config ()) doc in
  (* warm the cache at the pre-commit epoch *)
  Alcotest.(check int) "pre-commit count" 2 (Db.get_exn (Db.query_count db "/r/a"));
  Fault.arm ~seed:1 "version.epoch_bump" ~policy:Fault.One_shot
    ~action:(Fault.Delay 0.5);
  Fun.protect ~finally:Fault.reset (fun () ->
      let writer =
        Thread.create (fun () -> ignore (Db.get_exn (Db.update db append_a))) ()
      in
      Thread.delay 0.15;
      (* the writer is asleep at the failpoint, inside the commit mutex; one
         snapshot pinned now serves both reads. (Two pins would not do: an
         evaluating read waits for the write section to close, so without a
         cache the second pin would already see the commit.) *)
      let cached, fresh =
        Db.get_exn
          (Db.read_txn db (fun s ->
               ( Db.get_exn (Session.count s "/r/a"),
                 List.length
                   (Db.E.eval_items (Session.view s)
                      (Xpath.Xpath_parser.parse "/r/a")) )))
      in
      Thread.join writer;
      Alcotest.(check int) "cached read pinned the old epoch" 2 cached;
      Alcotest.(check int) "fresh read agrees (pre-images resolved)" 2 fresh);
  Alcotest.(check int) "commit visible once the bump lands" 3
    (Db.get_exn (Db.query_count db "/r/a"))

let () =
  Alcotest.run "qcache"
    [ ( "keys",
        [ Alcotest.test_case "epoch keying" `Quick test_epoch_keys;
          Alcotest.test_case "plan tier" `Quick test_plan_tier ] );
      ( "bounds",
        [ Alcotest.test_case "entry LRU" `Quick test_entry_bound;
          Alcotest.test_case "byte budget" `Quick test_byte_bound;
          Alcotest.test_case "in-place upgrade" `Quick test_replace_upgrade;
          Alcotest.test_case "clear + validation" `Quick
            test_clear_and_validation ] );
      ( "single-flight",
        [ Alcotest.test_case "dedup under domains" `Quick
            test_single_flight_dedup;
          Alcotest.test_case "failure recovery" `Quick
            test_single_flight_failure_recovery ] );
      ( "db",
        [ Alcotest.test_case "roundtrip + invalidation" `Quick
            test_db_roundtrip;
          Alcotest.test_case "write sessions bypass" `Quick
            test_write_session_bypass;
          Alcotest.test_case "profile annotation" `Quick
            test_profile_annotation;
          Alcotest.test_case "rendered body cached" `Quick test_render_cached;
          Alcotest.test_case "upgrade charges the body" `Quick
            test_render_upgrade_charge;
          Alcotest.test_case "oversized body not stored" `Quick
            test_render_oversized;
          Alcotest.test_case "XQDB_CACHE override" `Quick test_env_override;
          Alcotest.test_case "vacuum drops cache" `Quick
            test_vacuum_drops_cache ] );
      ( "ordering",
        [ Alcotest.test_case "epoch bump precedes mutex release" `Quick
            test_epoch_bump_ordering ] ) ]
