(* Core.Profile: per-step plan/cardinality accounting, the EXPLAIN / JSON /
   Chrome renderers, the slow-query log, and the profiled routing of
   [Db.query] while the log is armed. Parallel plans are exercised with
   cutoffs forced to 1, as in test_par. *)

module Db = Core.Db
module Par = Core.Par
module Profile = Core.Profile

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* 40 items: large enough that every partitioned step has real work in each
   chunk, small enough to stay quick *)
let doc () =
  let b = Buffer.create 2048 in
  Buffer.add_string b "<site>";
  for i = 0 to 39 do
    Buffer.add_string b
      (Printf.sprintf "<item id=\"i%d\"><name>n%d</name><keyword>k%d</keyword></item>"
         i i (i mod 7))
  done;
  Buffer.add_string b "</site>";
  Db.of_xml (Buffer.contents b)

(* ------------------------------------------------------- step accounting -- *)

let test_seq_profile () =
  let db = doc () in
  let items, p = Db.get_exn (Db.query_profiled db "//item/keyword") in
  Alcotest.(check int) "result cardinality" 40 (List.length items);
  Alcotest.(check int) "profile.items agrees" 40 p.Profile.items;
  Alcotest.(check int) "sequential = 1 domain" 1 p.Profile.domains;
  Alcotest.(check string) "query recorded" "//item/keyword" p.Profile.query;
  Alcotest.(check bool) "timings accumulated" true
    (p.Profile.total_s >= 0.0 && p.Profile.parse_s >= 0.0 && p.Profile.eval_s >= 0.0);
  Alcotest.(check bool) "trace captured" true (p.Profile.trace <> None);
  (* //item/keyword = descendant-or-self::node() / child::item / child::keyword,
     evaluated as descendant::item / child::keyword: the engine fuses each
     `//x` into one descendant step *)
  Alcotest.(check int) "one record per axis step" 2 (List.length p.Profile.steps);
  List.iter
    (fun (s : Profile.step) ->
      Alcotest.(check string) "sequential plan" "seq" (Profile.plan_name s.Profile.plan);
      Alcotest.(check int) "no partitions" 1 s.Profile.partitions;
      Alcotest.(check bool) "work counted" true (s.Profile.scanned > 0);
      Alcotest.(check bool) "duration sane" true (s.Profile.dur_s >= 0.0))
    p.Profile.steps;
  (match p.Profile.steps with
  | [ s1; s2 ] ->
    Alcotest.(check string) "fused descendant step" "descendant" s1.Profile.axis;
    Alcotest.(check int) "first step starts from the root" 1 s1.Profile.ctx_in;
    (* each step's output feeds the next step's context *)
    Alcotest.(check int) "items flow to ctx" s1.Profile.items s2.Profile.ctx_in;
    Alcotest.(check int) "last step carries the result" 40 s2.Profile.items
  | _ -> Alcotest.fail "expected exactly two steps")

let test_parallel_plans () =
  let db = doc () in
  let seq = Db.get_exn (Db.query_profiled db "//item/keyword") in
  Par.with_pool ~range_cutoff:1 ~ctx_cutoff:1 ~domains:4 (fun par ->
      let items, p = Db.get_exn (Db.query_profiled ~par db "//item/keyword") in
      Alcotest.(check int) "parallel = sequential" (List.length (fst seq))
        (List.length items);
      Alcotest.(check int) "pool width recorded" 4 p.Profile.domains;
      let has plan =
        List.exists (fun (s : Profile.step) -> s.Profile.plan = plan) p.Profile.steps
      in
      (* the descendant scan (//item) partitions by pre-order range; the
         child step chunks its context list instead *)
      Alcotest.(check bool) "range plan used" true (has Profile.Range);
      Alcotest.(check bool) "ctx plan used" true (has Profile.Ctx);
      List.iter
        (fun (s : Profile.step) ->
          if s.Profile.plan <> Profile.Seq then
            Alcotest.(check bool) "parallel step has partitions" true
              (s.Profile.partitions > 1))
        p.Profile.steps;
      (* cardinalities must not depend on the plan *)
      List.iter2
        (fun (a : Profile.step) (b : Profile.step) ->
          Alcotest.(check string) "same axis" a.Profile.axis b.Profile.axis;
          Alcotest.(check int) "same ctx_in" a.Profile.ctx_in b.Profile.ctx_in;
          Alcotest.(check int) "same items" a.Profile.items b.Profile.items)
        (snd seq).Profile.steps p.Profile.steps)

(* --------------------------------------------------------------- renderers -- *)

let test_render_explain () =
  let db = doc () in
  let _, p = Db.get_exn (Db.query_profiled db "//item/keyword") in
  let full = Profile.render_explain p in
  Alcotest.(check bool) "query shown" true (contains full "//item/keyword");
  Alcotest.(check bool) "plan column" true (contains full "plan=seq");
  Alcotest.(check bool) "axis shown" true (contains full "child::keyword");
  Alcotest.(check bool) "result line" true (contains full "result: 40 items");
  Alcotest.(check bool) "timings by default" true
    (contains full "parse:" && contains full "ms)");
  (* ~timings:false is the golden-file mode: no durations anywhere *)
  let bare = Profile.render_explain ~timings:false p in
  Alcotest.(check bool) "no timings" false (contains bare "parse:" || contains bare "ms)");
  (* two runs of the same query render identically without timings *)
  let _, p2 = Db.get_exn (Db.query_profiled db "//item/keyword") in
  Alcotest.(check string) "deterministic" bare
    (Profile.render_explain ~timings:false p2)

let test_render_json_and_chrome () =
  let db = doc () in
  let _, p = Db.get_exn (Db.query_profiled db "//item[keyword]/name") in
  let json = Profile.render_json p in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true (contains json needle))
    [ {|"query"|}; {|"steps"|}; {|"plan":"seq"|}; {|"items"|}; {|"domains"|} ];
  let trace = Profile.render_chrome p in
  Alcotest.(check bool) "is a JSON array" true
    (String.length trace > 0 && trace.[0] = '[');
  Alcotest.(check bool) "metadata event" true (contains trace {|"ph":"M"|});
  Alcotest.(check bool) "complete events" true (contains trace {|"ph":"X"|});
  Alcotest.(check bool) "spans present" true (contains trace "db.query");
  Alcotest.(check bool) "engine steps present" true (contains trace "engine.step")

(* ---------------------------------------------------- pinned instruments -- *)

(* The engine's counters and step records for two point lookups, pinned to
   what the interpreting evaluator counted: a compiled predicate that reads
   its attribute directly, or a child step that tests inside the sibling
   walk, must still count every context it feeds an axis and every child
   it walks. *)
module E_ro = Core.Engine.Make (Core.Schema_ro)
module E_view = Core.Engine.Make (Core.View)

let axis_steps axis = Obs.counter ~labels:[ ("axis", axis) ] "engine.axis_steps"

let m_items = Obs.counter "engine.items"

let pinned =
  [ ( "/site/people/person[@id='person3']/name",
      (* axis_steps child, axis_steps attribute, engine.items *)
      (4, 51, 1),
      (* ctx_in, scanned, items per step *)
      [ (1, 1, 1); (1, 6, 1); (1, 51, 1); (1, 5, 1) ] );
    ( "/site/people/person[not(homepage)]/name",
      (83, 0, 29),
      [ (1, 1, 1); (1, 6, 1); (1, 51, 29); (29, 156, 29) ] ) ]

let test_pinned_instruments () =
  let d = Xmark.Gen.of_scale 0.002 in
  let up = Core.Schema_up.of_dom ~page_bits:6 ~fill:0.8 d in
  let eval_ro = E_ro.eval_items (Core.Schema_ro.of_dom d)
  and eval_view = E_view.eval_items (Testsupport.view up) in
  let run name eval =
    List.iter
      (fun (src, (child, attr, items), steps) ->
        let path = Xpath.Xpath_parser.parse src in
        let counters = [ axis_steps "child"; axis_steps "attribute"; m_items ] in
        let before = List.map Obs.value counters in
        let c = Profile.collector () in
        eval ~prof:c path;
        let delta = List.map2 (fun k b -> Obs.value k - b) counters before in
        let got_steps =
          List.map
            (fun (s : Profile.step) -> (s.Profile.ctx_in, s.Profile.scanned, s.Profile.items))
            (Profile.steps c)
        in
        Alcotest.(check (list int)) (name ^ " counters " ^ src) [ child; attr; items ] delta;
        Alcotest.(check (list (triple int int int))) (name ^ " steps " ^ src) steps got_steps)
      pinned
  in
  run "ro" (fun ~prof p -> ignore (eval_ro ~prof p));
  run "view" (fun ~prof p -> ignore (eval_view ~prof p))

(* ---------------------------------------------------------------- slowlog -- *)

let mk total =
  { Profile.query = Printf.sprintf "q_%g" total;
    started_at = 0.0;
    parse_s = 0.0;
    eval_s = 0.0;
    total_s = total;
    items = 0;
    domains = 1;
    cache = None;
    steps = [];
    trace = None }

let totals () = List.map (fun (p : Profile.t) -> p.Profile.total_s) (Profile.Slowlog.entries ())

let test_slowlog_threshold_and_eviction () =
  Fun.protect ~finally:Profile.Slowlog.disable (fun () ->
      Profile.Slowlog.configure ~capacity:3 ~threshold_s:0.5 ();
      Alcotest.(check (option (float 1e-9))) "armed" (Some 0.5)
        (Profile.Slowlog.threshold ());
      List.iter (fun t -> Profile.Slowlog.note (mk t)) [ 0.6; 0.1; 2.0; 1.0; 0.7; 3.0 ];
      (* 0.1 was under the threshold; 0.6 and 0.7 were evicted by slower ones *)
      Alcotest.(check (list (float 1e-9))) "N slowest, slowest first"
        [ 3.0; 2.0; 1.0 ] (totals ());
      (* reset drops entries but stays armed *)
      Profile.Slowlog.reset ();
      Alcotest.(check (list (float 1e-9))) "reset empties" [] (totals ());
      Profile.Slowlog.note (mk 0.9);
      Alcotest.(check (list (float 1e-9))) "still armed" [ 0.9 ] (totals ()));
  (* disabled: notes are ignored and threshold reads None *)
  Alcotest.(check (option (float 1e-9))) "disarmed" None (Profile.Slowlog.threshold ());
  Profile.Slowlog.note (mk 99.0);
  Alcotest.(check bool) "note ignored when disabled" true
    (not (List.mem 99.0 (totals ())));
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Profile.Slowlog.configure") (fun () ->
      Profile.Slowlog.configure ~capacity:0 ~threshold_s:1.0 ())

let test_query_routes_through_slowlog () =
  let db = doc () in
  let plain = Db.get_exn (Db.query db "//item/name") in
  Fun.protect ~finally:Profile.Slowlog.disable (fun () ->
      Profile.Slowlog.configure ~capacity:4 ~threshold_s:0.0 ();
      Profile.Slowlog.reset ();
      (* armed log routes Db.query through the profiled path: same results,
         and the query lands in the log (threshold 0 catches everything) *)
      let routed = Db.get_exn (Db.query db "//item/name") in
      Alcotest.(check int) "results unchanged" (List.length plain) (List.length routed);
      match Profile.Slowlog.entries () with
      | [ p ] ->
        Alcotest.(check string) "query captured" "//item/name" p.Profile.query;
        Alcotest.(check bool) "profile has steps" true (p.Profile.steps <> [])
      | es -> Alcotest.failf "expected one slowlog entry, got %d" (List.length es))

let () =
  Alcotest.run "profile"
    [ ( "steps",
        [ Alcotest.test_case "sequential accounting" `Quick test_seq_profile;
          Alcotest.test_case "parallel plans (range/ctx)" `Quick test_parallel_plans;
          Alcotest.test_case "pinned instruments" `Quick test_pinned_instruments ] );
      ( "renderers",
        [ Alcotest.test_case "explain" `Quick test_render_explain;
          Alcotest.test_case "json + chrome trace" `Quick test_render_json_and_chrome ] );
      ( "slowlog",
        [ Alcotest.test_case "threshold + eviction" `Quick
            test_slowlog_threshold_and_eviction;
          Alcotest.test_case "Db.query routing" `Quick test_query_routes_through_slowlog ] ) ]
