(* Benchmark harness: regenerates every evaluation artifact of the paper plus
   one ablation per measurable claim (see DESIGN.md's experiment index).

     fig9         XMark Q1-Q20, read-only vs updateable schema (the paper's
                  only evaluation figure/table, chart + table views)
     fig9-xquery  the same comparison from actual XQuery text (FLWOR layer)
     shift-cost   naive materialised-pre updates are O(N); paged are O(page)
     insert-cost  insert cost scales with update volume, not document size
     concurrency  commutative size deltas vs an ancestor-locking protocol
                  (the ratio at 4 writers is gated)
     mvcc         writer commit throughput under concurrent snapshot readers
                  (writes BENCH_mvcc.json; gated in CI via --baseline)
     parallel     domain-pool query scaling over one pinned snapshot
                  (writes BENCH_parallel.json; 1-domain overhead is gated)
     cache        epoch-keyed query cache: repeat-query hit speedup and
                  miss-path overhead (writes BENCH_cache.json; both gated)
     multidoc     document catalog: cross-document cache isolation (gated at
                  zero), inter-document query fan-out, mixed readers/writers
                  (writes BENCH_multidoc.json)
     server       TCP server under 1/4/16 concurrent clients: throughput,
                  p50/p99 latency, SIGTERM drain + recovery (writes
                  BENCH_server.json; error count and p99 are gated)
     ordpath      variable-length labels degenerate; fixed keys do not
     rdbms        positional (void) access vs a B-tree-indexed SQL host
     storage      the ~25% space overhead of the updateable schema

   Run everything:      dune exec bench/main.exe
   One experiment:      dune exec bench/main.exe -- fig9
   Bigger documents:    dune exec bench/main.exe -- fig9 --scales 0.002,0.02,0.2 *)

module Ro = Core.Schema_ro
module Up = Core.Schema_up
module Q_ro = Xmark.Queries.Make (Core.Schema_ro)
module Q_up = Xmark.Queries.Make (Core.Schema_up)
module Q_view = Xmark.Queries.Make (Core.View)
module View = Core.View
module U = Core.Update
module Txn = Core.Txn
module E = Core.Engine.Make (Core.View)
module Naive = Baseline.Schema_naive
module Ord = Baseline.Ordpath
module Sj = Core.Staircase.Make (Core.View)

let ols =
  Bechamel.Analyze.ols ~r_square:false ~bootstrap:0
    ~predictors:[| Bechamel.Measure.run |]

(* Nanoseconds per run of [f], measured by bechamel's OLS over a sampling
   window of [quota] seconds. *)
let bench_ns ?(quota = 0.25) name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  match Analyze.OLS.estimates (Hashtbl.find res name) with
  | Some (t :: _) -> t
  | Some [] | None -> Float.nan
  | exception Not_found -> Float.nan

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The benches feed only valid XPath: an error is a bug, so it raises. *)
let query ?par db q = Core.Db.get_exn (Core.Db.query ?par db q)

let line () = print_endline (String.make 78 '-')

let header title =
  print_newline ();
  line ();
  Printf.printf "%s\n" title;
  line ()

(* Named scalar results that CI gates on: lower is always better. Collected
   during the run, compared against bench/baseline.json at the end. *)
let gates : (string * float) list ref = ref []

let record_gate k v = if Float.is_finite v then gates := (k, v) :: !gates

(* Every self-written BENCH_*.json records the commit it measured, so an
   archived artifact stays attributable without CI metadata. (The Chrome
   trace artifact is exempt: its format is fixed by the trace_event spec.) *)
let git_commit =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
       let line = try String.trim (input_line ic) with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with Unix.Unix_error _ | Sys_error _ -> "unknown")

let commit_field () =
  Printf.sprintf "  \"commit\": \"%s\",\n" (Lazy.force git_commit)

(* ------------------------------------------------------------------ fig9 -- *)

(* The paper reports seconds for 1.1MB/11MB/110MB/1.1GB XMark documents; we
   use XMark scale factors directly (document substitution documented in
   DESIGN.md) and report the same table and overhead chart. *)
let write_artifact path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let geomean l =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))

let run_fig9 ~scales ~quota =
  header
    "Figure 9: XMark Q1-Q20, read-only ('ro') vs updateable ('up') schema,\n\
     and the pinned MVCC snapshot ('view') every Db reader uses";
  let last_doc = ref None in
  let per_scale =
    List.map
      (fun scale ->
        let d, t_gen = wall (fun () -> Xmark.Gen.of_scale scale) in
        last_doc := Some d;
        let nodes = Xml.Dom.node_count d in
        Printf.printf
          "scale %.4f: %d nodes (generated in %.1fs), shredding...\n%!" scale
          nodes t_gen;
        let ro = Ro.of_dom d in
        let up = Up.of_dom ~fill:0.8 d in
        let db = Core.Db.create ~fill:0.8 d in
        (* all three must give identical answers before we time anything *)
        let a_ro = Q_ro.run_all ro and a_up = Q_up.run_all up in
        let a_view = Core.Db.read db Q_view.run_all in
        Array.iteri
          (fun i r ->
            if r <> a_up.(i) || r <> a_view.(i) then
              failwith (Printf.sprintf "Q%d disagrees between schemas!" (i + 1)))
          a_ro;
        let times =
          Array.init Xmark.Queries.query_count (fun i ->
              let q = i + 1 in
              let t_ro =
                bench_ns ~quota
                  (Printf.sprintf "s%.4f/ro/Q%d" scale q)
                  (fun () -> ignore (Q_ro.run ro q))
              in
              let t_up =
                bench_ns ~quota
                  (Printf.sprintf "s%.4f/up/Q%d" scale q)
                  (fun () -> ignore (Q_up.run up q))
              in
              (* a fresh pin per run, as every Db reader does *)
              let t_view =
                bench_ns ~quota
                  (Printf.sprintf "s%.4f/view/Q%d" scale q)
                  (fun () -> ignore (Core.Db.read db (fun v -> Q_view.run v q)))
              in
              (t_ro, t_up, t_view))
        in
        Core.Db.close db;
        (scale, nodes, times))
      scales
  in
  (* table view (paper's right-hand side): seconds, ro, up and view per size *)
  print_newline ();
  Printf.printf "%-4s" "Q";
  List.iter
    (fun (scale, _, _) ->
      List.iter
        (fun col -> Printf.printf " %10s" (Printf.sprintf "%s@%.4g" col scale))
        [ "ro"; "up"; "view" ])
    per_scale;
  print_newline ();
  for i = 0 to Xmark.Queries.query_count - 1 do
    Printf.printf "%-4s" (Xmark.Queries.name (i + 1));
    List.iter
      (fun (_, _, times) ->
        let t_ro, t_up, t_view = times.(i) in
        Printf.printf " %10.6f %10.6f %10.6f" (t_ro *. 1e-9) (t_up *. 1e-9)
          (t_view *. 1e-9))
      per_scale;
    print_newline ()
  done;
  (* chart view (paper's left-hand side): overhead%% per query per size *)
  print_newline ();
  Printf.printf "overhead of the updateable schema (chart view)\n";
  Printf.printf "%-4s %s\n" "Q"
    (String.concat " "
       (List.map (fun (s, _, _) -> Printf.sprintf "%22s" (Printf.sprintf "@%.4g" s)) per_scale));
  let sums = Array.make (List.length per_scale) 0.0 in
  for i = 0 to Xmark.Queries.query_count - 1 do
    Printf.printf "%-4s" (Xmark.Queries.name (i + 1));
    List.iteri
      (fun si (_, _, times) ->
        let t_ro, t_up, _ = times.(i) in
        let ov = 100.0 *. ((t_up /. t_ro) -. 1.0) in
        sums.(si) <- sums.(si) +. ov;
        let bar = max 0 (min 16 (int_of_float (ov /. 5.0))) in
        Printf.printf " %+6.1f%% %-14s" ov (String.make bar '#'))
      per_scale;
    print_newline ()
  done;
  Printf.printf "%-4s" "avg";
  Array.iter
    (fun s ->
      Printf.printf " %+6.1f%% %-14s" (s /. float_of_int Xmark.Queries.query_count) "")
    sums;
  print_newline ();
  record_gate "fig9_avg_overhead_pct"
    (Array.fold_left ( +. ) 0.0 sums
    /. float_of_int (Xmark.Queries.query_count * Array.length sums));
  (* Q7 is three pure descendant scans: what the updateable schema adds per
     scanned slot, with no other work to hide it *)
  let q7_up_over_ro =
    geomean
      (List.map
         (fun (_, _, times) ->
           let t_ro, t_up, _ = times.(6) in
           t_up /. t_ro)
         per_scale)
  in
  Printf.printf "Q7 up/ro (geomean over scales): %.3fx\n" q7_up_over_ro;
  record_gate "fig9_q7_up_over_ro" q7_up_over_ro;
  (* what the snapshot view adds on top of the updateable schema: the
     current-version fast path should keep it close to 1 *)
  print_newline ();
  Printf.printf "snapshot view over the updateable schema (view/up)\n";
  Printf.printf "%-4s %s\n" "Q"
    (String.concat " "
       (List.map
          (fun (s, _, _) -> Printf.sprintf "%8s" (Printf.sprintf "@%.4g" s))
          per_scale));
  for i = 0 to Xmark.Queries.query_count - 1 do
    Printf.printf "%-4s" (Xmark.Queries.name (i + 1));
    List.iter
      (fun (_, _, times) ->
        let _, t_up, t_view = times.(i) in
        Printf.printf " %7.3fx" (t_view /. t_up))
      per_scale;
    print_newline ()
  done;
  let view_over_up =
    List.map
      (fun (_, _, times) ->
        geomean
          (Array.to_list
             (Array.map (fun (_, t_up, t_view) -> t_view /. t_up) times)))
      per_scale
  in
  Printf.printf "%-4s" "geo";
  List.iter (fun r -> Printf.printf " %7.3fx" r) view_over_up;
  print_newline ();
  record_gate "fig9_view_over_up" (geomean view_over_up);
  (* representative profile artifact: per-step plans and cardinalities for a
     few descendant-heavy queries on the largest document of the run, plus a
     Chrome trace of the first one. The timed loops above run unprofiled, so
     the fig9 gate doubles as the profiling off-path overhead gate. *)
  (match !last_doc with
  | None -> ()
  | Some d ->
    let db = Core.Db.create ~page_bits:10 ~fill:0.8 d in
    let queries = [ "//item//keyword"; "//open_auction//bidder"; "//person/name" ] in
    Core.Par.with_pool ~domains:4 (fun pool ->
        let profs =
          List.map
            (fun q -> snd (Core.Db.get_exn (Core.Db.query_profiled ~par:pool db q)))
            queries
        in
        write_artifact "BENCH_profile.json"
          ("{\n" ^ commit_field () ^ "  \"profiles\": [\n"
          ^ String.concat ",\n" (List.map Core.Profile.render_json profs)
          ^ "\n  ]\n}\n");
        match profs with
        | p :: _ -> write_artifact "BENCH_trace.json" (Core.Profile.render_chrome p)
        | [] -> ());
    print_endline
      "\nprofiles written to BENCH_profile.json (Chrome trace: BENCH_trace.json)");
  print_endline
    "\npaper: overhead grows with document size but stays below ~30% on average;\n\
     the up schema pays the pre->pos swizzle plus node/pos indirection on\n\
     attribute access, and scans ~25% more slots."

(* ----------------------------------------------------------- fig9-xquery -- *)

module Xq_ro = Xquery.Xq_eval.Make (Core.Schema_ro)
module Xq_up = Xquery.Xq_eval.Make (Core.Schema_up)

(* The same ro-vs-up comparison executed from actual XQuery text through the
   FLWOR evaluator instead of the hand-written plans — a second, independent
   execution layer over the same storage access paths. The nested-loop joins
   of Q8-Q12 make the evaluator itself slower than the plans (it has no join
   optimizer), which is why this runs at one moderate scale; the *ratio*
   between schemas is what matters. *)
let run_fig9_xquery ~scale ~quota =
  header "Figure 9 (XQuery-text variant): Q1-Q20 through the FLWOR evaluator";
  let d = Xmark.Gen.of_scale scale in
  Printf.printf "XMark scale %.4f (%d nodes)\n\n" scale (Xml.Dom.node_count d);
  let ro = Ro.of_dom d in
  let up = Up.of_dom ~fill:0.8 d in
  Printf.printf "%-4s %12s %12s %10s\n" "Q" "ro [s]" "up [s]" "overhead";
  let sum = ref 0.0 in
  for q = 1 to 20 do
    let src = Xmark.Xqueries.text q in
    (* answers agree between schemas *)
    if not (String.equal (Xq_ro.run_string ro src) (Xq_up.run_string up src)) then
      failwith (Printf.sprintf "Q%d disagrees between schemas!" q);
    let t_ro = bench_ns ~quota (Printf.sprintf "xq/ro/Q%d" q) (fun () -> ignore (Xq_ro.run ro src)) in
    let t_up = bench_ns ~quota (Printf.sprintf "xq/up/Q%d" q) (fun () -> ignore (Xq_up.run up src)) in
    let ov = 100.0 *. ((t_up /. t_ro) -. 1.0) in
    sum := !sum +. ov;
    Printf.printf "%-4s %12.6f %12.6f %+9.1f%%\n" (Xmark.Queries.name q)
      (t_ro *. 1e-9) (t_up *. 1e-9) ov
  done;
  Printf.printf "%-4s %12s %12s %+9.1f%%\n" "avg" "" "" (!sum /. 20.0);
  print_endline
    "\nsame storage comparison as fig9, through a different execution layer;\n\
     the overhead ratio should match the plan-based figure."

(* ------------------------------------------------------------ shift-cost -- *)

(* n leaf entries in 500-entry sections: a flat, realistic worst case for
   shifting (half the document follows the insert point). Constant section
   size keeps insert-point resolution cost identical across document sizes,
   so the timed region isolates the update mechanism itself. *)
let wide_doc n =
  let per_section = 500 in
  let sections = max 1 (n / per_section) in
  let children =
    List.init sections (fun s ->
        Xml.Dom.Element
          { name = Xml.Qname.make (Printf.sprintf "section%d" s);
            attrs = [];
            children =
              List.init per_section (fun i ->
                  Xml.Dom.Element
                    { name = Xml.Qname.make "entry";
                      attrs = [ (Xml.Qname.make "id", string_of_int i) ];
                      children = [ Xml.Dom.Text "payload" ] }) })
  in
  Xml.Dom.doc { Xml.Dom.name = Xml.Qname.make "root"; attrs = []; children }

(* the section element nearest the middle of the document, by pre *)
let mid_section_naive nv =
  let mid = Naive.extent nv / 2 in
  let rec back j = if Naive.level nv j = 1 then j else back (j - 1) in
  back mid

let mid_section_up v =
  let mid = View.prev_used v (View.extent v / 2) in
  let rec back j =
    let j = View.prev_used v j in
    if View.level v j = 1 then j else back (j - 1)
  in
  back mid

let pre_of_node v node = View.pre_of_pos v (View.node_pos_get v node)

let run_shift_cost ~sizes =
  header "Claim 2.2: structural update cost, naive O(N) vs logical pages";
  let page_bits = 10 in
  Printf.printf "(logical pages of %d tuples)\n" (1 lsl page_bits);
  Printf.printf "%10s | %12s %12s | %12s %12s | %8s\n" "nodes" "naive ms/op"
    "tuples moved" "paged ms/op" "tuples moved" "speedup";
  List.iter
    (fun n ->
      let d = wide_doc n in
      let frag () = Xml.Xml_parser.parse_fragment "<probe><x/></probe>" in
      let reps = 10 in
      (* naive: resolve the target section once, time the pure inserts *)
      let nv = Naive.of_dom d in
      let p_naive = mid_section_naive nv in
      let naive_moved = ref 0 in
      let (), t_naive =
        wall (fun () ->
            for _ = 1 to reps do
              Naive.insert nv ~parent_pre:p_naive ~at_pre:(p_naive + 1) (frag ());
              naive_moved := !naive_moved + Naive.last_shifted nv
            done)
      in
      (* paged: pin the same section by node id (pre values shift); each
         insert is one committed transaction *)
      let up = Up.of_dom ~page_bits ~fill:0.9 d in
      let m = Txn.manager up in
      let section_node = Up.node_at up ~pre:(Txn.read m mid_section_up) in
      U.reset_costs ();
      let (), t_paged =
        wall (fun () ->
            for _ = 1 to reps do
              Txn.with_write m (fun v ->
                  U.insert v (U.First_child (pre_of_node v section_node)) (frag ()))
            done)
      in
      let paged_moved = U.costs.U.moved_tuples in
      Printf.printf "%10d | %12.3f %12d | %12.3f %12d | %7.1fx\n" n
        (1000.0 *. t_naive /. float_of_int reps)
        (!naive_moved / reps)
        (1000.0 *. t_paged /. float_of_int reps)
        (paged_moved / reps)
        (t_naive /. t_paged))
    sizes;
  print_endline
    "\npaper: naive cost is linear in document size (half the document\n\
     follows the insert point, and every shifted pre is also rewritten in\n\
     the attribute table); the paged scheme touches one logical page."

(* ----------------------------------------------------------- insert-cost -- *)

let run_insert_cost () =
  header "Claim 3: insert cost follows update volume, not document size";
  let page_bits = 10 in
  Printf.printf "(logical pages of %d tuples; inserting as first child of a mid-document section)\n"
    (1 lsl page_bits);
  Printf.printf "%10s %10s | %12s %12s %10s\n" "doc nodes" "insert m"
    "ms/insert" "tuples moved" "new pages";
  List.iter
    (fun doc_n ->
      List.iter
        (fun m ->
          let up = Up.of_dom ~page_bits ~fill:0.9 (wide_doc doc_n) in
          let mgr = Txn.manager up in
          let frag =
            Xml.Xml_parser.parse_fragment
              ("<blob>"
              ^ String.concat ""
                  (List.init (m - 1) (fun i -> Printf.sprintf "<n%d/>" (i mod 5)))
              ^ "</blob>")
          in
          let section_node = Up.node_at up ~pre:(Txn.read mgr mid_section_up) in
          let reps = 10 in
          U.reset_costs ();
          let (), t =
            wall (fun () ->
                for _ = 1 to reps do
                  Txn.with_write mgr (fun v ->
                      U.insert v (U.First_child (pre_of_node v section_node)) frag)
                done)
          in
          Printf.printf "%10d %10d | %12.4f %12d %10d\n" doc_n m
            (1000.0 *. t /. float_of_int reps)
            (U.costs.U.moved_tuples / reps)
            U.costs.U.new_pages)
        [ 1; 8; 64; 512; 4096 ])
    [ 5_000; 50_000 ];
  print_endline
    "\npaper: rows with the same m cost the same regardless of document size;\n\
     large inserts only append pages (pre renumbering is free: virtual column)."

(* ----------------------------------------------------------- concurrency -- *)

(* Each transaction carries [work_ms] of think time (the client computing,
   validating, waiting on a network round-trip).

   - Pessimistic ancestor locking — "the document root is an ancestor of all
     nodes and thus must be locked by every update" (§2.2) — acquires the
     ancestors' page locks up front and holds them across the think time and
     the commit, so every writer in the system serialises behind the root
     page. The store itself takes no page locks (writers are validated at
     commit), so this baseline brings its own: one mutex per physical page.
   - The paper's design needs no ancestor locks at all: size maintenance is
     a commutative delta applied at commit, and the ancestor search reads
     the transaction's snapshot, so its write set is the page of its own
     insert and think times overlap freely. Occasional snapshot conflicts
     (a commit rewriting that page) abort-and-retry cheaply instead of
     waiting.

   (OCaml threads do not run OCaml code in parallel, so this measures
   exactly what the paper argues about: lock waiting, not CPU scaling.) *)
let run_concurrency ~ops_per_writer =
  header "Claim 3.2: commutative size deltas avoid the root-page bottleneck";
  let work_ms = 5.0 in
  let make_store writers =
    (* padding puts each zone's insert point on its own logical page, so
       writers only contend where the protocol makes them contend *)
    let pads = String.concat "" (List.init 200 (fun _ -> "<pad/>")) in
    let zones =
      List.init writers (fun i ->
          Printf.sprintf "<zone id='z%d'><data>%s</data></zone>" i pads)
    in
    Up.of_dom ~page_bits:6 ~fill:0.5
      (Xml.Xml_parser.parse ("<root>" ^ String.concat "" zones ^ "</root>"))
  in
  let run_mode ~writers ~lock_ancestors =
    let base = make_store writers in
    let m = Txn.manager base in
    let bits = Up.page_bits base in
    (* one mutex per page, appended pages included: a zone's header can sit
       on the page where the previous zone inserts, and that zone's overflows
       move it to a fresh page; a one-node insert appends at most one *)
    let page_locks =
      Array.init (Up.npages base + (writers * ops_per_writer)) (fun _ -> Mutex.create ())
    in
    (* clients hold a node handle (immutable id) for their target, as real
       clients that navigated once do *)
    let data_nodes =
      Array.init writers (fun i ->
          Txn.read m (fun v ->
              match E.parse_eval v (Printf.sprintf "/root/zone[@id='z%d']/data" i) with
              | [ E.Node pre ] -> Up.node_at base ~pre
              | _ -> failwith "zone not found"))
    in
    let one_op i k =
      let t = Txn.begin_write m in
      let held = ref [] in
      let release () = List.iter Mutex.unlock !held in
      match
        let v = Txn.view t in
        let data = View.pre_of_pos v (View.node_pos_get v data_nodes.(i)) in
        let frag = Xml.Xml_parser.parse_fragment (Printf.sprintf "<r n='%d'/>" k) in
        if lock_ancestors then begin
          (* the protocol the paper avoids: lock the page of the target and
             of every ancestor up front — root included — and hold them
             through the think time and the commit. Acquired in a global
             order (ascending page), deadlock-free. *)
          let pages =
            List.sort_uniq compare
              (List.map
                 (fun pre -> View.pos_of_pre v pre lsr bits)
                 (data :: Sj.ancestors v [ data ]))
          in
          held := List.map (Array.get page_locks) pages;
          List.iter Mutex.lock !held;
          Thread.delay (work_ms /. 1000.0);
          U.insert v (U.Nth_child (data, 180)) frag
        end
        else begin
          (* delta mode: do the insert up front (copying only this zone's
             page), then think — reads go to the snapshot, so a commit
             meanwhile conflicts only if it rewrote that page, and no
             ancestor is ever locked *)
          U.insert v (U.Nth_child (data, 180)) frag;
          Thread.delay (work_ms /. 1000.0)
        end;
        Txn.commit t
      with
      | () -> release ()
      | exception e ->
        (try Txn.abort t with Invalid_argument _ -> ());
        release ();
        raise e
    in
    let worker i =
      Thread.create
        (fun () ->
          for k = 1 to ops_per_writer do
            let rec attempt tries =
              match one_op i k with
              | () -> ()
              | exception (Txn.Aborted _ | Txn.Conflict _) when tries < 500 ->
                (* optimistic retry with bounded backoff *)
                Thread.delay (0.0005 *. float_of_int (min 8 (1 + tries)));
                attempt (tries + 1)
            in
            attempt 0
          done)
        ()
    in
    let (), t = wall (fun () -> List.iter Thread.join (List.init writers worker)) in
    (match Up.check_integrity base with
    | Ok () -> ()
    | Error msg -> failwith ("integrity after concurrency bench: " ^ msg));
    float_of_int (writers * ops_per_writer) /. t
  in
  Printf.printf "(%.1fms of think time per transaction, locks held)\n" work_ms;
  Printf.printf "%8s | %17s | %19s | %8s\n" "writers" "delta commit tx/s"
    "ancestor locks tx/s" "speedup";
  List.iter
    (fun writers ->
      let tps_delta = run_mode ~writers ~lock_ancestors:false in
      let tps_locks = run_mode ~writers ~lock_ancestors:true in
      Printf.printf "%8d | %17.0f | %19.0f | %7.2fx\n" writers tps_delta tps_locks
        (tps_delta /. tps_locks);
      (* gate <= 0.25 at 4 writers, i.e. deltas at least 4x faster *)
      if writers = 4 then
        record_gate "concurrency_locks_over_delta_4w" (tps_locks /. tps_delta))
    [ 1; 2; 4 ];
  print_endline
    "\npaper: delta updates are transaction-commutative, so concurrent writers\n\
     in different pages never contend on the root; with ancestor locking the\n\
     root page serialises every commit."

(* --------------------------------------------------------------- ordpath -- *)

let run_ordpath () =
  header "Claim 4.2: variable-length keys degenerate under repeated inserts";
  Printf.printf "%8s | %12s %12s | %12s %14s\n" "inserts" "ordpath bits"
    "cmp ns" "fixed bits" "pre lookup ns";
  List.iter
    (fun rounds ->
      (* ORDPATH: nest inserts between the two freshest labels *)
      let a = ref (Ord.child Ord.root 1) and b = ref (Ord.child Ord.root 2) in
      let worst = ref !a in
      for i = 1 to rounds do
        let x = Ord.between !a !b in
        if Ord.bit_length x > Ord.bit_length !worst then worst := x;
        if i land 1 = 0 then a := x else b := x
      done;
      let wa = !a and wb = !b in
      let t_cmp =
        bench_ns "ordpath-cmp" (fun () -> ignore (Ord.compare wa wb))
      in
      (* our fixed-size scheme under the same workload: node ids stay one
         machine word; order tests swizzle node -> pos -> pre *)
      let up =
        Up.of_dom ~page_bits:4 ~fill:0.8 (Xml.Xml_parser.parse "<r><a/><b/></r>")
      in
      let m = Txn.manager up in
      for i = 1 to rounds do
        Txn.with_write m (fun v ->
            let a_pre =
              match E.parse_eval v "/r/a" with
              | [ E.Node pre ] -> pre
              | _ -> failwith "a"
            in
            U.insert v (U.After a_pre)
              (Xml.Xml_parser.parse_fragment (Printf.sprintf "<n i='%d'/>" i)))
      done;
      let n1 = Up.node_at up ~pre:(Up.root_pre up) in
      let t_lookup =
        bench_ns "fixed-key order test" (fun () ->
            ignore (Up.pre_of_node up n1))
      in
      Printf.printf "%8d | %12d %12.1f | %12d %14.1f\n" rounds
        (Ord.bit_length !worst) t_cmp 64 t_lookup)
    [ 64; 256; 1024 ];
  print_endline
    "\npaper: ORDPATH-like labels grow without bound at a hot insert point\n\
     and comparisons cost O(length); pre/size/level keys stay one word with\n\
     O(1) positional lookup (at the price of the ancestor size updates)."

(* ----------------------------------------------------------------- rdbms -- *)

module Bt = Baseline.Schema_btree
module Q_bt = Xmark.Queries.Make (Baseline.Schema_btree)

(* §4: "we think that the representation of node numbers as simple pre
   integers that can be located positionally is the prime reason for the
   performance advantage of MonetDB/XQuery over other XQuery systems" — the
   same updateable layout accessed through B-trees (any RDBMS host) against
   MonetDB-style positional (void-column) access. *)
let run_rdbms ~scale ~quota =
  header "Claim 4: positional (void) access vs a B-tree-indexed SQL host";
  let d = Xmark.Gen.of_scale scale in
  Printf.printf "XMark scale %.4f (%d nodes), identical updateable layout\n\n"
    scale (Xml.Dom.node_count d);
  let up = Up.of_dom ~fill:0.8 d in
  let bt = Bt.of_dom ~fill:0.8 d in
  (* answers must agree *)
  let a_up = Q_up.run_all up and a_bt = Q_bt.run_all bt in
  Array.iteri
    (fun i r ->
      if r <> a_bt.(i) then
        failwith (Printf.sprintf "Q%d disagrees between hosts!" (i + 1)))
    a_up;
  Printf.printf "%-4s %14s %14s %10s\n" "Q" "positional [s]" "B-tree [s]" "slowdown";
  let ratio_sum = ref 0.0 in
  for q = 1 to Xmark.Queries.query_count do
    let t_up =
      bench_ns ~quota (Printf.sprintf "up/Q%d" q) (fun () -> ignore (Q_up.run up q))
    in
    let t_bt =
      bench_ns ~quota (Printf.sprintf "bt/Q%d" q) (fun () -> ignore (Q_bt.run bt q))
    in
    ratio_sum := !ratio_sum +. (t_bt /. t_up);
    Printf.printf "%-4s %14.6f %14.6f %9.1fx\n" (Xmark.Queries.name q)
      (t_up *. 1e-9) (t_bt *. 1e-9) (t_bt /. t_up)
  done;
  Printf.printf "%-4s %14s %14s %9.1fx\n" "avg" "" ""
    (!ratio_sum /. float_of_int Xmark.Queries.query_count);
  print_endline
    "\npaper: positional lookup is 'a single CPU instruction'; a B-tree is\n\
     O(log N) per access — the gap above is the paper's stated reason for\n\
     MonetDB/XQuery's advantage over SQL-hosted XQuery systems."

(* --------------------------------------------------------------- storage -- *)

let run_storage ~scales =
  header "Storage 4.1: footprint of the updateable schema (~25% + node/pos)";
  Printf.printf "%8s | %10s %10s %8s | %12s %12s %9s | %8s\n" "scale" "nodes"
    "slots" "slack" "ro bytes" "up bytes" "overhead" "pages";
  List.iter
    (fun scale ->
      let d = Xmark.Gen.of_scale scale in
      let ro = Ro.of_dom d and up = Up.of_dom ~fill:0.8 d in
      let sro = Ro.stats ro and sup = Up.stats up in
      Printf.printf "%8.4f | %10d %10d %+7.1f%% | %12d %12d %+8.1f%% | %8d\n" scale
        sro.Ro.nodes sup.Up.slots
        (100.0 *. (float_of_int sup.Up.slots /. float_of_int sup.Up.nodes -. 1.0))
        sro.Ro.approx_bytes sup.Up.approx_bytes
        (100.0
        *. (float_of_int sup.Up.approx_bytes /. float_of_int sro.Ro.approx_bytes
           -. 1.0))
        (Up.npages up))
    scales;
  print_endline
    "\npaper: the pos/size/level table itself takes ~25% more rows (the slack\n\
     column above; exact once the document spans many pages). Total bytes\n\
     grow more: the extra node column, the node/pos table and the pageOffset\n\
     — the paper's 'moreover ...' additions — are counted here too."

(* ------------------------------------------------------------------ mvcc -- *)

(* Snapshot-isolated reads: N reader domains pin version descriptors and
   scan while one writer commits XUpdate insert/delete pairs. The global
   read lock is gone, so the writer's commit rate should be insensitive to
   the reader count. Readers pace themselves (think time) so the table
   measures lock interference rather than core timesharing — on a 1-2 core
   CI machine, unpaced reader domains would drown the writer in scheduler
   and GC-rendezvous noise that has nothing to do with locking. *)
let run_mvcc ~duration =
  header "MVCC: writer commit throughput under concurrent snapshot readers";
  let db = Core.Db.create ~page_bits:10 ~fill:0.8 (wide_doc 20_000) in
  let think = 0.05 in
  let stress ~readers =
    let stop = Atomic.make false in
    let reads = Atomic.make 0 and commits = Atomic.make 0 in
    let reader () =
      while not (Atomic.get stop) do
        (match Core.Db.query db "/*/*" with
        | Ok _ -> Atomic.incr reads
        | Error e -> failwith (Core.Db.Error.to_string e));
        Unix.sleepf think
      done
    in
    let writer () =
      let add =
        {|<xupdate:modifications><xupdate:append select="/*"><w/></xupdate:append></xupdate:modifications>|}
      in
      let del =
        {|<xupdate:modifications><xupdate:remove select="/*/w[1]"/></xupdate:modifications>|}
      in
      let adding = ref true in
      while not (Atomic.get stop) do
        match Core.Db.update db (if !adding then add else del) with
        | Ok _ ->
          Atomic.incr commits;
          adding := not !adding
        | Error (Core.Db.Error.Aborted _) -> ()
        | Error (Core.Db.Error.Apply _) -> adding := true
        | Error e -> failwith (Core.Db.Error.to_string e)
      done
    in
    let t0 = Unix.gettimeofday () in
    let rd = List.init readers (fun _ -> Domain.spawn reader) in
    let wt = Thread.create writer () in
    Thread.delay duration;
    Atomic.set stop true;
    Thread.join wt;
    List.iter Domain.join rd;
    let dt = Unix.gettimeofday () -. t0 in
    ( float_of_int (Atomic.get commits) /. dt,
      float_of_int (Atomic.get reads) /. dt )
  in
  Printf.printf "(%.0fms reader think time, %.1fs per row)\n\n"
    (think *. 1000.0) duration;
  Printf.printf "%8s | %12s | %10s\n" "readers" "commits/s" "reads/s";
  let rows =
    List.map
      (fun readers ->
        let c, r = stress ~readers in
        Printf.printf "%8d | %12.0f | %10.0f\n%!" readers c r;
        (readers, c, r))
      [ 0; 1; 2; 4; 8 ]
  in
  (match Up.check_integrity (Core.Db.store db) with
  | Ok () -> ()
  | Error msg -> failwith ("integrity after mvcc bench: " ^ msg));
  let base = match rows with (0, c, _) :: _ -> c | _ -> Float.nan in
  let slowdown =
    match List.rev rows with
    | (8, c, _) :: _ when c > 0.0 -> base /. c
    | _ -> Float.nan
  in
  Printf.printf "\ncommit slowdown at 8 readers: %.2fx\n" slowdown;
  record_gate "mvcc_slowdown_8r" slowdown;
  let oc = open_out "BENCH_mvcc.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n%s  \"duration_s\": %g,\n  \"think_s\": %g,\n  \"rows\": [\n%s\n  ],\n  \"slowdown_8r\": %g\n}\n"
        (commit_field ()) duration think
        (String.concat ",\n"
           (List.map
              (fun (n, c, r) ->
                Printf.sprintf
                  "    { \"readers\": %d, \"commits_per_s\": %.1f, \"reads_per_s\": %.1f }"
                  n c r)
              rows))
        slowdown);
  print_endline "results written to BENCH_mvcc.json";
  print_endline
    "\nwith the retired global read lock this table collapsed: every reader\n\
     blocked the writer for its whole scan; snapshot reads leave the commit\n\
     rate flat (residual slowdown on 1-2 cores is CPU timesharing)."

(* -------------------------------------------------------------- parallel -- *)

(* Domain-parallel query scaling: the same XMark descendant queries, one
   snapshot, evaluated sequentially and with pools of 1/2/4/8 domains. The
   scaling curve is only meaningful with real cores — the JSON records
   [cores] so consumers can judge — but the 1-domain row is meaningful
   anywhere: a 1-domain pool takes the pure sequential path, so its ratio to
   the plain sequential run gates the cost of having the parallel machinery
   in the code path at all ([par_overhead_1d], lower is better). *)
let run_parallel ~scale ~quota =
  header "Parallel queries: domain-pool scaling over one pinned snapshot";
  (* below ~0.01 the document is smaller than the default range cutoff and
     nothing would be partitioned *)
  let scale = Float.max scale 0.01 in
  let d, t_gen = wall (fun () -> Xmark.Gen.of_scale scale) in
  let nodes = Xml.Dom.node_count d in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "scale %.4f: %d nodes (generated in %.1fs); %d core(s) available\n%!"
    scale nodes t_gen cores;
  let db = Core.Db.create ~page_bits:10 ~fill:0.8 d in
  let queries =
    [ "//item"; "//keyword"; "//item//keyword"; "//open_auction//bidder" ]
  in
  let seq_results = List.map (fun q -> query db q) queries in
  let t_seq =
    List.map
      (fun q -> bench_ns ~quota ("seq/" ^ q) (fun () -> ignore (query db q)))
      queries
  in
  let widths = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun domains ->
        Core.Par.with_pool ~domains (fun pool ->
            (* identical answers before we time anything *)
            List.iter2
              (fun q expect ->
                if query ~par:pool db q <> expect then
                  failwith
                    (Printf.sprintf "parallel result differs at %d domains: %s"
                       domains q))
              queries seq_results;
            let ts =
              List.map
                (fun q ->
                  bench_ns ~quota
                    (Printf.sprintf "par%d/%s" domains q)
                    (fun () -> ignore (query ~par:pool db q)))
                queries
            in
            (domains, ts)))
      widths
  in
  let avg_speedup ts =
    let ratios = List.map2 (fun s p -> s /. p) t_seq ts in
    List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
  in
  Printf.printf "\n%-24s %12s" "query" "seq ns";
  List.iter (fun w -> Printf.printf " %11s" (Printf.sprintf "%dd ns" w)) widths;
  print_newline ();
  List.iteri
    (fun i q ->
      Printf.printf "%-24s %12.0f" q (List.nth t_seq i);
      List.iter (fun (_, ts) -> Printf.printf " %11.0f" (List.nth ts i)) rows;
      print_newline ())
    queries;
  let overhead_1d =
    let ts = List.assoc 1 rows in
    List.fold_left ( +. ) 0.0 ts /. List.fold_left ( +. ) 0.0 t_seq
  in
  let speedup_4d = avg_speedup (List.assoc 4 rows) in
  Printf.printf "\n1-domain overhead vs sequential: %.3fx (gate: <= 1.10x)\n"
    overhead_1d;
  List.iter
    (fun (w, ts) -> Printf.printf "avg speedup at %d domains: %.2fx\n" w (avg_speedup ts))
    rows;
  if cores < 4 then
    Printf.printf
      "(only %d core(s): domains timeshare, speedups above ~1x are not \
       expected on this machine)\n"
      cores;
  record_gate "par_overhead_1d" overhead_1d;
  let oc = open_out "BENCH_parallel.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
         %s\
        \  \"scale\": %g,\n\
        \  \"nodes\": %d,\n\
        \  \"cores\": %d,\n\
        \  \"queries\": [%s],\n\
        \  \"seq_ns\": [%s],\n\
        \  \"rows\": [\n\
         %s\n\
        \  ],\n\
        \  \"overhead_1d\": %g,\n\
        \  \"speedup_4d\": %g\n\
         }\n"
        (commit_field ()) scale nodes cores
        (String.concat ", " (List.map (Printf.sprintf "\"%s\"") queries))
        (String.concat ", " (List.map (Printf.sprintf "%.1f") t_seq))
        (String.concat ",\n"
           (List.map
              (fun (w, ts) ->
                Printf.sprintf
                  "    { \"domains\": %d, \"ns\": [%s], \"avg_speedup\": %.3f }"
                  w
                  (String.concat ", " (List.map (Printf.sprintf "%.1f") ts))
                  (avg_speedup ts))
              rows))
        overhead_1d speedup_4d);
  print_endline "results written to BENCH_parallel.json"

(* ----------------------------------------------------------------- cache -- *)

(* Epoch-keyed query cache: repeating a query against an unchanged store must
   be served from the result cache (gate: hit time <= 20% of the uncached
   time, i.e. >= 5x speedup), and the miss path — probe, evaluate, insert —
   must cost at most 5% over a cache-less store. The miss row uses a 1-entry
   cache with two alternating queries so they evict each other: every probe
   misses and pays the full insert + evict path (the plan tier still hits,
   which is part of the design — compiled plans survive epoch changes). *)
let run_cache ~scale ~quota =
  header "Query cache: epoch-keyed result reuse (hit speedup, miss overhead)";
  let scale = Float.max scale 0.01 in
  let d, t_gen = wall (fun () -> Xmark.Gen.of_scale scale) in
  let nodes = Xml.Dom.node_count d in
  Printf.printf "scale %.4f: %d nodes (generated in %.1fs)\n%!" scale nodes
    t_gen;
  let db_off = Core.Db.create ~page_bits:10 ~fill:0.8 d in
  let db_on =
    Core.Db.create ~page_bits:10 ~fill:0.8 ~cache:Core.Db.default_cache d
  in
  let queries =
    [ "//item"; "//keyword"; "//item//keyword"; "//open_auction//bidder" ]
  in
  (* identical answers cold and from the cache before we time anything *)
  List.iter
    (fun q ->
      let expect = query db_off q in
      if query db_on q <> expect then
        failwith ("cached (cold) result differs: " ^ q);
      if query db_on q <> expect then
        failwith ("cached (hit) result differs: " ^ q))
    queries;
  let t_off =
    List.map
      (fun q ->
        bench_ns ~quota ("off/" ^ q) (fun () ->
            ignore (query db_off q)))
      queries
  in
  let t_hit =
    List.map
      (fun q ->
        bench_ns ~quota ("hit/" ^ q) (fun () ->
            ignore (query db_on q)))
      queries
  in
  let q1 = "//item//keyword" and q2 = "//open_auction//bidder" in
  let db_miss =
    Core.Db.create ~page_bits:10 ~fill:0.8
      ~cache:(Core.Db.cache_config ~entries:1 ()) d
  in
  (* the pair loops run for microseconds, so at smoke quotas scheduler noise
     swamps any single OLS estimate and the ratio gate would flake; noise is
     one-sided, so the min over a few interleaved estimates converges on the
     true cost of each side *)
  let pair_quota = Float.max quota 0.1 in
  let t_miss_pair = ref infinity and t_off_pair = ref infinity in
  for _ = 1 to 9 do
    t_miss_pair :=
      Float.min !t_miss_pair
        (bench_ns ~quota:pair_quota "miss/pair" (fun () ->
             ignore (query db_miss q1);
             ignore (query db_miss q2)));
    t_off_pair :=
      Float.min !t_off_pair
        (bench_ns ~quota:pair_quota "off/pair" (fun () ->
             ignore (query db_off q1);
             ignore (query db_off q2)))
  done;
  let t_miss_pair = !t_miss_pair and t_off_pair = !t_off_pair in
  (* epoch invalidation end to end: a commit must re-route the same text to
     a fresh evaluation that sees the new state *)
  let n_w = List.length (query db_on "//w") in
  let add =
    {|<xupdate:modifications><xupdate:append select="/*"><w/></xupdate:append></xupdate:modifications>|}
  in
  (match Core.Db.update db_on add with
  | Ok _ -> ()
  | Error e -> failwith (Core.Db.Error.to_string e));
  let n_w' = List.length (query db_on "//w") in
  if n_w' <> n_w + 1 then failwith "stale cached result survived a commit";
  Printf.printf "\n%-24s %12s %12s %9s\n" "query" "uncached ns" "hit ns"
    "speedup";
  List.iteri
    (fun i q ->
      let o = List.nth t_off i and h = List.nth t_hit i in
      Printf.printf "%-24s %12.0f %12.0f %8.1fx\n" q o h (o /. h))
    queries;
  let repeat_frac =
    List.fold_left ( +. ) 0.0 (List.map2 (fun o h -> h /. o) t_off t_hit)
    /. float_of_int (List.length queries)
  in
  let miss_overhead = t_miss_pair /. t_off_pair in
  Printf.printf
    "\navg hit time as fraction of uncached: %.4fx (gate <= 0.20, i.e. >= 5x)\n"
    repeat_frac;
  Printf.printf "miss-path overhead vs no cache: %.3fx (gate <= 1.05x)\n"
    miss_overhead;
  record_gate "cache_repeat_frac" repeat_frac;
  record_gate "cache_miss_overhead" miss_overhead;
  let st =
    match Core.Db.cache_stats db_on with
    | Some st -> st
    | None -> failwith "cache-enabled store reports no stats"
  in
  Printf.printf
    "cache: %d hits / %d misses, %d plan hits, %d evictions, %d entries, %d bytes\n"
    st.Core.Qcache.hits st.Core.Qcache.misses st.Core.Qcache.plan_hits
    st.Core.Qcache.evictions st.Core.Qcache.entries st.Core.Qcache.bytes;
  let oc = open_out "BENCH_cache.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
         %s\
        \  \"scale\": %g,\n\
        \  \"nodes\": %d,\n\
        \  \"queries\": [%s],\n\
        \  \"uncached_ns\": [%s],\n\
        \  \"hit_ns\": [%s],\n\
        \  \"repeat_frac\": %g,\n\
        \  \"miss_pair_ns\": %.1f,\n\
        \  \"off_pair_ns\": %.1f,\n\
        \  \"miss_overhead\": %g,\n\
        \  \"stats\": { \"hits\": %d, \"misses\": %d, \"plan_hits\": %d,\n\
        \             \"evictions\": %d, \"entries\": %d, \"bytes\": %d }\n\
         }\n"
        (commit_field ()) scale nodes
        (String.concat ", " (List.map (Printf.sprintf "\"%s\"") queries))
        (String.concat ", " (List.map (Printf.sprintf "%.1f") t_off))
        (String.concat ", " (List.map (Printf.sprintf "%.1f") t_hit))
        repeat_frac t_miss_pair t_off_pair miss_overhead st.Core.Qcache.hits
        st.Core.Qcache.misses st.Core.Qcache.plan_hits
        st.Core.Qcache.evictions st.Core.Qcache.entries st.Core.Qcache.bytes);
  print_endline "results written to BENCH_cache.json"

(* -------------------------------------------------------------- multidoc -- *)

(* The document catalog: N documents sharing one commit lane, WAL-less here,
   one query cache. Three claims:

   1. cache isolation — result keys are (document, query, epoch) with
      per-document epochs, so a commit to one document must leave every
      other document's warm results untouched. Deterministic, gated at
      exactly zero cross-document misses.
   2. inter-document fan-out — the same query across N documents runs as N
      pool tasks. The dispatch overhead of a 1-domain pool vs the plain
      sequential loop is gated (the speedup at N domains is reported but
      not gated: CI boxes may have one core).
   3. mixed readers/writers — readers pinned to other documents while one
      document takes commits; rates reported, correctness is covered by the
      isolation gate and a final per-document integrity check. *)
let run_multidoc ~quota ~duration =
  header "multi-document catalog: cache isolation and inter-document fan-out";
  let ndocs = 4 in
  let names =
    List.init ndocs (fun i ->
        if i = 0 then Core.Db.default_doc else Printf.sprintf "doc%d" i)
  in
  let mk_catalog ?cache () =
    let db = Core.Db.empty ?cache () in
    List.iter
      (fun n ->
        match Core.Db.create_doc ~page_bits:10 ~fill:0.8 db n (wide_doc 10_000) with
        | Ok () -> ()
        | Error e -> failwith (Core.Db.Error.to_string e))
      names;
    db
  in
  let q = "/*/*" in
  let upd =
    {|<xupdate:modifications><xupdate:append select="/*"><w/></xupdate:append></xupdate:modifications>|}
  in

  (* -- 1. cache isolation ------------------------------------------------ *)
  let db = mk_catalog ~cache:Core.Db.default_cache () in
  let count doc =
    match Core.Db.query_count ~doc db q with
    | Ok n -> n
    | Error e -> failwith (Core.Db.Error.to_string e)
  in
  let stats () = Option.get (Core.Db.cache_stats db) in
  List.iter (fun d -> ignore (count d)) names;
  let st0 = stats () in
  List.iter (fun d -> ignore (count d)) names;
  let st1 = stats () in
  let warm_hits = st1.Core.Qcache.hits - st0.Core.Qcache.hits in
  (match Core.Db.update db upd with
  | Ok _ -> ()
  | Error e -> failwith (Core.Db.Error.to_string e));
  let st2 = stats () in
  List.iter (fun d -> ignore (count d)) (List.tl names);
  let st3 = stats () in
  let isolation_misses = st3.Core.Qcache.misses - st2.Core.Qcache.misses in
  ignore (count (List.hd names));
  let st4 = stats () in
  let self_misses = st4.Core.Qcache.misses - st3.Core.Qcache.misses in
  Printf.printf
    "%d documents warm (%d/%d repeat hits); after a commit to %S:\n\
    \  other documents: %d miss(es) (gate: 0 — per-document epochs)\n\
    \  the written document: %d miss(es) (its epoch advanced)\n"
    ndocs warm_hits ndocs (List.hd names) isolation_misses self_misses;
  record_gate "multidoc_isolation_misses" (float_of_int isolation_misses);

  (* -- 2. inter-document fan-out ----------------------------------------- *)
  (* a second, cache-less catalog so the timings measure evaluation, not
     cache lookups *)
  let db2 = mk_catalog () in
  let fanout par () =
    List.iter
      (fun (_, r) ->
        match r with
        | Ok _ -> ()
        | Error e -> failwith (Core.Db.Error.to_string e))
      (Core.Db.query_count_docs ?par db2 q)
  in
  let t_seq = bench_ns ~quota "multidoc-seq" (fanout None) in
  let t_1d =
    Core.Par.with_pool ~domains:1 (fun p ->
        bench_ns ~quota "multidoc-1d" (fanout (Some p)))
  in
  let t_nd =
    Core.Par.with_pool ~domains:ndocs (fun p ->
        bench_ns ~quota "multidoc-nd" (fanout (Some p)))
  in
  let overhead_1d = t_1d /. t_seq in
  let speedup_nd = t_seq /. t_nd in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "\nsame query over %d documents: sequential %.0fns, 1-domain pool %.0fns, \
     %d-domain pool %.0fns\n\
     1-domain dispatch overhead: %.3fx (gated)\n\
     %d-domain speedup: %.2fx (%d core(s); not gated)\n"
    ndocs t_seq t_1d ndocs t_nd overhead_1d ndocs speedup_nd cores;
  record_gate "multidoc_par_overhead_1d" overhead_1d;

  (* -- 3. mixed readers/writers ------------------------------------------ *)
  let stop = Atomic.make false in
  let reads = Atomic.make 0 and commits = Atomic.make 0 in
  let reader docs () =
    while not (Atomic.get stop) do
      List.iter
        (fun d ->
          match Core.Db.query_count ~doc:d db q with
          | Ok _ -> Atomic.incr reads
          | Error e -> failwith (Core.Db.Error.to_string e))
        docs
    done
  in
  let writer () =
    while not (Atomic.get stop) do
      match Core.Db.update db upd with
      | Ok _ -> Atomic.incr commits
      | Error (Core.Db.Error.Aborted _) -> ()
      | Error e -> failwith (Core.Db.Error.to_string e)
    done
  in
  let t0 = Unix.gettimeofday () in
  let rd = List.init 2 (fun _ -> Domain.spawn (reader (List.tl names))) in
  let wt = Thread.create writer () in
  Thread.delay duration;
  Atomic.set stop true;
  Thread.join wt;
  List.iter Domain.join rd;
  let dt = Unix.gettimeofday () -. t0 in
  let reads_s = float_of_int (Atomic.get reads) /. dt in
  let commits_s = float_of_int (Atomic.get commits) /. dt in
  Printf.printf
    "\nmixed load (%.1fs): 2 readers over %d docs at %.0f reads/s, 1 writer \
     on %S at %.0f commits/s\n"
    dt (ndocs - 1) reads_s (List.hd names) commits_s;
  List.iter
    (fun n ->
      match Up.check_integrity (Core.Db.store ~doc:n db) with
      | Ok () -> ()
      | Error msg -> failwith (Printf.sprintf "integrity of %S: %s" n msg))
    names;
  Printf.printf "per-document integrity: OK (%d documents)\n" ndocs;

  let oc = open_out "BENCH_multidoc.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
         %s\
        \  \"ndocs\": %d,\n\
        \  \"warm_hits\": %d,\n\
        \  \"isolation_misses\": %d,\n\
        \  \"self_misses\": %d,\n\
        \  \"fanout_seq_ns\": %.1f,\n\
        \  \"fanout_1d_ns\": %.1f,\n\
        \  \"fanout_nd_ns\": %.1f,\n\
        \  \"overhead_1d\": %g,\n\
        \  \"speedup_nd\": %g,\n\
        \  \"cores\": %d,\n\
        \  \"mixed\": { \"reads_per_s\": %.1f, \"commits_per_s\": %.1f, \
         \"duration_s\": %g }\n\
         }\n"
        (commit_field ()) ndocs warm_hits isolation_misses self_misses t_seq
        t_1d t_nd overhead_1d speedup_nd cores reads_s commits_s dt);
  print_endline "results written to BENCH_multidoc.json"

(* ---------------------------------------------------------------- server -- *)

(* Network server under concurrent clients: throughput and p50/p99 request
   latency at 1/4/16 connections, then a SIGTERM mid-load to verify the
   graceful drain (exit 0, checkpoint + WAL recover cleanly).

   The server runs in a forked child so the SIGTERM path is the real one.
   Forking is only legal before any domain has been spawned, so this
   experiment MUST run before every pool-using experiment (it is dispatched
   first in main below; keep it that way). *)

let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let a = Array.copy a in
    Array.sort compare a;
    a.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))
  end

let run_server ~duration =
  header "server: concurrent TCP clients, throughput + latency + drain";
  let dir = Filename.temp_file "bench_server" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let ck = Filename.concat dir "server.ck" in
  let wal = Filename.concat dir "server.wal" in
  let port_r, port_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (* child: the server process, killed by SIGTERM at the end *)
    Unix.close port_r;
    let db =
      Core.Db.create ~page_bits:10 ~fill:0.8 ~wal_path:wal
        ~cache:Core.Db.default_cache (wide_doc 20_000)
    in
    let config =
      { Server.default_config with
        Server.checkpoint_to = Some ck;
        max_connections = 64;
        request_timeout_s = 30.0 }
    in
    let srv = Server.start ~config db in
    let oc = Unix.out_channel_of_descr port_w in
    Printf.fprintf oc "%d\n%!" (Server.port srv);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Server.stop srv));
    Server.wait srv;
    Core.Db.close db;
    Unix._exit 0
  | child ->
    Unix.close port_w;
    (* the drain cuts connections mid-request: a write into one must fail
       with EPIPE (counted, not gated), not kill the bench with SIGPIPE *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let port =
      let ic = Unix.in_channel_of_descr port_r in
      let p = int_of_string (String.trim (input_line ic)) in
      close_in ic;
      p
    in
    let connect () =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      fd
    in
    (* read-mostly mix: distinct XPaths so both cache hits and misses are on
       the wire, plus a PING for the floor *)
    let mix =
      [| Server.Protocol.Query "/root/section3/entry";
         Server.Protocol.Count "//entry";
         Server.Protocol.Query "/root/section1/entry[@id=\"7\"]";
         Server.Protocol.Ping;
         Server.Protocol.Query "/root/section2/entry" |]
    in
    let proto_errors = Atomic.make 0 in
    let load ~clients ~secs ~requests =
      let lats_mu = Mutex.create () in
      let lats = ref [] in
      let stopf = Atomic.make false in
      let thread k () =
        let fd = connect () in
        let mine = ref [] in
        let i = ref k in
        (try
           while not (Atomic.get stopf) do
             let req = requests.(!i mod Array.length requests) in
             incr i;
             let t0 = Unix.gettimeofday () in
             match Server.Protocol.request fd req with
             | Ok (Server.Protocol.Ok _) ->
               mine := (Unix.gettimeofday () -. t0) :: !mine
             | Ok (Server.Protocol.Err _) | Error _ ->
               Atomic.incr proto_errors
           done
         with Unix.Unix_error _ -> Atomic.incr proto_errors);
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Mutex.lock lats_mu;
        lats := !mine @ !lats;
        Mutex.unlock lats_mu
      in
      let ts = List.init clients (fun k -> Thread.create (thread k) ()) in
      Thread.delay secs;
      Atomic.set stopf true;
      List.iter Thread.join ts;
      Array.of_list !lats
    in
    Printf.printf "%8s | %12s | %10s %10s | %8s\n" "clients" "requests/s"
      "p50 ms" "p99 ms" "errors";
    let rows =
      List.map
        (fun clients ->
          let before = Atomic.get proto_errors in
          let lats = load ~clients ~secs:duration ~requests:mix in
          let errs = Atomic.get proto_errors - before in
          let rps = float_of_int (Array.length lats) /. duration in
          let p50 = 1000.0 *. percentile lats 0.5 in
          let p99 = 1000.0 *. percentile lats 0.99 in
          Printf.printf "%8d | %12.0f | %10.3f %10.3f | %8d\n%!" clients rps
            p50 p99 errs;
          (clients, rps, p50, p99, Array.length lats, errs))
        [ 1; 4; 16 ]
    in
    (* SIGTERM mid-load with writers in flight: the drain must answer (or
       cleanly cut) every client, checkpoint, and exit 0. Client-side errors
       here are expected (connections die mid-request) and not gated. *)
    let drain_mix =
      [| Server.Protocol.Update
           "<xupdate:modifications><xupdate:append \
            select=\"/root/section0\"><entry \
            id=\"bench\">x</entry></xupdate:append></xupdate:modifications>";
         Server.Protocol.Query "/root/section4/entry" |]
    in
    let killer =
      Thread.create
        (fun () ->
          Thread.delay (duration /. 2.0);
          Unix.kill child Sys.sigterm)
        ()
    in
    let (_ : float array) =
      load ~clients:4 ~secs:duration ~requests:drain_mix
    in
    Thread.join killer;
    let _, status = Unix.waitpid [] child in
    let exit_code = match status with Unix.WEXITED n -> n | _ -> 255 in
    let recovered, integrity =
      match Core.Db.open_recovered ~wal_path:wal ~checkpoint:ck () with
      | Error e -> (false, Core.Db.Error.to_string e)
      | Ok db -> (
        match Core.Schema_up.check_integrity (Core.Db.store db) with
        | Ok () -> (true, "OK")
        | Error m -> (false, m))
    in
    Printf.printf
      "drain: server exit %d, recovery %s (integrity %s)\n" exit_code
      (if recovered then "OK" else "FAILED")
      integrity;
    let steady_errors =
      List.fold_left (fun acc (_, _, _, _, _, e) -> acc + e) 0 rows
    in
    let p99_16 =
      List.fold_left
        (fun acc (c, _, _, p99, _, _) -> if c = 16 then p99 else acc)
        Float.nan rows
    in
    (* the drain must also be clean for the gate to pass: fold failures in
       as synthetic protocol errors so one scalar gates the experiment *)
    let gate_errors =
      steady_errors
      + (if exit_code = 0 then 0 else 1)
      + if recovered then 0 else 1
    in
    record_gate "server_proto_errors" (float_of_int gate_errors);
    record_gate "server_p99_ms_16c" p99_16;
    let oc = open_out "BENCH_server.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\n%s  \"experiment\": \"server\",\n  \"duration_s\": %g,\n  \
           \"rows\": [" (commit_field ()) duration;
        List.iteri
          (fun i (clients, rps, p50, p99, n, errs) ->
            Printf.fprintf oc
              "%s\n    { \"clients\": %d, \"throughput_rps\": %.1f, \
               \"p50_ms\": %.4f, \"p99_ms\": %.4f, \"requests\": %d, \
               \"errors\": %d }"
              (if i = 0 then "" else ",")
              clients rps p50 p99 n errs)
          rows;
        Printf.fprintf oc
          "\n  ],\n  \"drain\": { \"exit_code\": %d, \"recovered\": %b, \
           \"integrity\": \"%s\" },\n  \"proto_errors\": %d\n}\n"
          exit_code recovered (Obs.json_escape integrity) steady_errors);
    print_endline "results written to BENCH_server.json";
    (* keep the temp dir only when something went wrong, for post-mortem *)
    if gate_errors = 0 then begin
      List.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Array.to_list (Sys.readdir dir));
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
    else Printf.printf "server artifacts kept in %s\n" dir

(* -------------------------------------------------------------- baseline -- *)

(* bench/baseline.json is a flat {"gate": number} object; every gate is a
   lower-is-better scalar. A run regresses when a measured gate exceeds its
   baseline by more than 20%. Gates not measured this run are skipped, so
   quick CI invocations can gate on a subset. *)
let baseline_pairs s =
  let n = String.length s in
  let pairs = ref [] in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '"' then begin
      let j = String.index_from s (!i + 1) '"' in
      let key = String.sub s (!i + 1) (j - !i - 1) in
      let k = ref (j + 1) in
      while !k < n && s.[!k] <> ':' do incr k done;
      incr k;
      while
        !k < n && (s.[!k] = ' ' || s.[!k] = '\t' || s.[!k] = '\n' || s.[!k] = '\r')
      do
        incr k
      done;
      let e = ref !k in
      while
        !e < n
        && (match s.[!e] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr e
      done;
      if !e > !k then
        pairs := (key, float_of_string (String.sub s !k (!e - !k))) :: !pairs;
      i := max (!e) (j + 1)
    end
    else incr i
  done;
  List.rev !pairs

let check_baseline path =
  let ic = open_in path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let base = baseline_pairs s in
  let ok = ref true in
  Printf.printf "\nbaseline gate (%s): measured <= baseline * 1.20\n" path;
  List.iter
    (fun (k, b) ->
      match List.assoc_opt k !gates with
      | None ->
        Printf.printf "  %-26s baseline %8.3f   (not measured this run)\n" k b
      | Some v ->
        let limit = b *. 1.2 in
        let pass = v <= limit in
        if not pass then ok := false;
        Printf.printf "  %-26s measured %8.3f vs limit %8.3f  %s\n" k v limit
          (if pass then "OK" else "REGRESSION"))
    base;
  !ok

(* ------------------------------------------------------------------ main -- *)

let parse_scales s = List.map float_of_string (String.split_on_char ',' s)

let () =
  let experiments = ref [] in
  let scales = ref [ 0.0005; 0.005; 0.05; 0.2 ] in
  let quota = ref 0.25 in
  let ops = ref 150 in
  let duration = ref 2.0 in
  let baseline = ref "" in
  let spec =
    [ ( "--scales",
        Arg.String (fun s -> scales := parse_scales s),
        "comma-separated XMark scale factors (default 0.0005,0.005,0.05,0.2)" );
      ("--quota", Arg.Set_float quota, "seconds of sampling per query (default 0.25)");
      ("--ops", Arg.Set_int ops, "operations per writer in the concurrency bench");
      ("--duration", Arg.Set_float duration, "seconds per row in the mvcc bench (default 2)");
      ( "--baseline",
        Arg.Set_string baseline,
        "gate file: fail (exit 1) when a measured gate exceeds baseline by >20%" ) ]
  in
  Arg.parse spec (fun x -> experiments := x :: !experiments)
    "usage: main.exe [server|fig9|shift-cost|insert-cost|concurrency|mvcc|parallel|cache|multidoc|ordpath|storage|all]*";
  let chosen = match !experiments with [] -> [ "all" ] | l -> List.rev l in
  let want name = List.mem name chosen || List.mem "all" chosen in
  (* server forks its child process; fork is illegal once a domain exists,
     so it must run before every pool-using experiment *)
  if want "server" then run_server ~duration:!duration;
  if want "fig9" then run_fig9 ~scales:!scales ~quota:!quota;
  if want "fig9-xquery" then
    run_fig9_xquery ~scale:0.005 ~quota:!quota;
  if want "shift-cost" then run_shift_cost ~sizes:[ 2_000; 10_000; 50_000; 250_000 ];
  if want "insert-cost" then run_insert_cost ();
  if want "concurrency" then run_concurrency ~ops_per_writer:!ops;
  if want "mvcc" then run_mvcc ~duration:!duration;
  if want "parallel" then
    run_parallel ~scale:(List.fold_left Float.max 0.0005 !scales) ~quota:!quota;
  if want "cache" then
    run_cache ~scale:(List.fold_left Float.max 0.0005 !scales) ~quota:!quota;
  if want "multidoc" then run_multidoc ~quota:!quota ~duration:!duration;
  if want "ordpath" then run_ordpath ();
  if want "rdbms" then
    run_rdbms ~scale:(List.fold_left max 0.0005 !scales /. 5.0) ~quota:!quota;
  if want "storage" then run_storage ~scales:!scales;
  (* Dump the metrics registry the whole run accumulated, so benchmark
     numbers come with the matching operation counts (txn.commits, wal.bytes,
     schema_up.page_overflows, ...). *)
  let obs_out = "BENCH_obs.json" in
  let oc = open_out obs_out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        ("{\n" ^ commit_field () ^ "  \"metrics\": "
        ^ Obs.render_json (Obs.snapshot ())
        ^ "\n}\n"));
  Printf.printf "\nmetrics registry written to %s\n" obs_out;
  if !baseline <> "" && not (check_baseline !baseline) then exit 1
