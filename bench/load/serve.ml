(* serve-hot, serve-cold and serve-mixed: closed-loop load from client
   threads, one connection each (see [connections]), against a real
   [xqdb serve] process. *)

module P = Server.Protocol
module I = Inputs

type workload = Hot | Cold | Mixed

let name = function Hot -> "serve-hot" | Cold -> "serve-cold" | Mixed -> "serve-mixed"

type env = {
  xqdb : string;
  dir : string;
  scale : float;
  seed : int;
  host : Host.t;
  cpu : int option;  (** the CPU the servers run on, if pinned *)
}

(* Writes of the xmark-snapshot aging shape that follow the measured window
   of the read-only mixes: they give those workloads a write latency and a
   crash to recover from. *)
let epilogue_writes = 60

(* Documents, request texts and expected answers of one workload. The hot
   texts are asked of [main] on serve-hot and of [mirror] on serve-mixed,
   where no write ever goes. *)
type ctx = {
  wl : workload;
  sh : I.shape;
  main_file : string;
  mirror_file : string option;
  main_ref : Core.Db.t;
  hot_answers : string array;
}

let prepare env wl =
  let sh = I.shape env.scale in
  let doc name seed =
    let path = Filename.concat env.dir (name ^ ".xml") in
    I.write_doc ~path ~scale:env.scale ~seed;
    path
  in
  let main_file = doc "main" env.seed in
  let mirror_file = if wl = Mixed then Some (doc "mirror" (env.seed + 1)) else None in
  let main_ref = Check.reference main_file in
  let hot_ref = Option.fold ~none:main_ref ~some:Check.reference mirror_file in
  { wl;
    sh;
    main_file;
    mirror_file;
    main_ref;
    hot_answers = Array.map (Check.payload hot_ref) I.hot_pool }

let next_op ctx c =
  match ctx.wl with
  | Hot -> I.hot_op c
  | Cold -> I.cold_op ctx.sh c
  | Mixed -> I.mixed_op ctx.sh c

let client env wl id =
  I.client ~seed:env.seed ~workload:(match wl with Hot -> 1 | Cold -> 2 | Mixed -> 3) id

(* ------------------------------------------------------------ the client -- *)

(* What one connection saw. Latencies, retries and acknowledged XUpdate
   bytes are kept only while recording; attempts and failures always count.
   Sampled serve-cold answers wait in [pending] and are checked against the
   reference store after the window, so the check never stalls the load. *)
type tally = {
  mutable reads : Check.sample list;
  mutable writes : Check.sample list;
  mutable retries : int;
  mutable user_bytes : int;
  mutable attempted : int;
  mutable failed : int;
  mutable pending : (P.request * string) list;
  mutable wrong : string list;
  mutable errors : string list;
}

let tally () =
  { reads = [];
    writes = [];
    retries = 0;
    user_bytes = 0;
    attempted = 0;
    failed = 0;
    pending = [];
    wrong = [];
    errors = [] }

let note l msg = if List.length l < 5 then msg :: l else l

let fail t msg =
  t.failed <- t.failed + 1;
  t.errors <- note t.errors msg

let wrong t msg =
  t.failed <- t.failed + 1;
  t.wrong <- note t.wrong msg

(* One operation, timed from its first frame (a DOC switch included) to
   its final answer; an aborted UPDATE is resent up to three times. With
   [~record:(Some slice)] its latency is kept, in that slice. *)
let run_op ctx conn c t ~record op =
  t.attempted <- t.attempted + 1;
  let t0 = Proc.now () in
  let keep kind field =
    Option.iter (fun slice -> field { Check.slice; kind; lat = Proc.now () -. t0 }) record
  in
  let scope doc =
    if conn.Proc.scope <> doc then
      match Proc.send conn (P.Doc doc) with
      | P.Ok _ -> conn.scope <- doc
      | P.Err { msg; _ } -> raise (Proc.Io ("DOC " ^ doc ^ ": " ^ msg))
  in
  match op with
  | I.Read { doc; req; kind; check } -> (
    scope doc;
    match Proc.send conn req with
    | P.Err { code; msg } -> fail t (Printf.sprintf "%s: %s %s" (P.render_request req) code msg)
    | P.Ok body -> (
      keep kind (fun s -> t.reads <- s :: t.reads);
      match check with
      | I.Expect i -> if body <> ctx.hot_answers.(i) then wrong t ("wrong answer to " ^ P.render_request req)
      | I.Sample ->
        c.I.reads <- c.I.reads + 1;
        if c.I.reads mod 50 = 0 then t.pending <- (req, body) :: t.pending
      | I.Unchecked -> ()))
  | I.Write { cmds; body } ->
    scope "main";
    let rec go k =
      match Proc.send conn (P.Update body) with
      | P.Ok n ->
        I.acked c cmds;
        if n <> string_of_int (List.length cmds) then
          wrong t (Printf.sprintf "UPDATE of %d commands answered %s" (List.length cmds) n)
        else begin
          keep 0 (fun s -> t.writes <- s :: t.writes);
          if record <> None then t.user_bytes <- t.user_bytes + String.length body
        end;
        k
      | P.Err { code = "aborted"; _ } when k < 3 -> go (k + 1)
      | P.Err { code; msg } ->
        I.failed c cmds;
        fail t (Printf.sprintf "UPDATE: %s %s" code msg);
        k
    in
    let retries = go 0 in
    if record <> None then t.retries <- t.retries + retries

(* A dead connection ends its client's work; the failure is counted. *)
let guarded t f =
  try f () with
  | Proc.Io m -> fail t ("I/O: " ^ m)
  | Unix.Unix_error (e, _, _) -> fail t ("I/O: " ^ Unix.error_message e)

let phase ctx conns clients tallies ~seconds ~record =
  let deadline = Proc.now () +. seconds in
  let worker i () =
    guarded tallies.(i) (fun () ->
        while Proc.now () < deadline do
          run_op ctx conns.(i) clients.(i) tallies.(i) ~record (next_op ctx clients.(i))
        done)
  in
  List.iter Thread.join
    (List.init (Array.length conns) (fun i -> Thread.create (worker i) ()))

(* --------------------------------------------------------- server layers -- *)

(* Per-layer numbers from the server's own instruments (one METRICS scrape
   before and one after the measured window) and from the clients. *)
let server_layers ~before ~after ~frames ~frame_s ~writes ~retries ~user_bytes =
  let d = Proc.delta before after in
  let per a b = if d b > 0. then d a /. d b else 0. in
  let mean_ms h = 1000. *. per (h ^ "_sum") (h ^ "_count") in
  let commits = d "txn_commits" in
  let per_commit x = if commits > 0. then x /. commits else 0. in
  let requests = d "server_request_time_count" in
  let request_ms = mean_ms "server_request_time" in
  let ratio a b = if d a +. d b > 0. then d a /. (d a +. d b) else 0. in
  [ ("server.request_ms", request_ms);
    ("server.outside_ms", (1000. *. frame_s /. float_of_int (max 1 frames)) -. request_ms);
    ("server.bytes_out_per_req", d "server_bytes_out" /. Float.max 1. requests);
    ("qcache.hit_ratio", ratio "qcache_hits" "qcache_misses");
    ("qcache.plan_hit_ratio", ratio "qcache_plan_hits" "qcache_plan_misses");
    ("qcache.evictions_per_req", d "qcache_evictions" /. Float.max 1. requests);
    ("qcache.singleflight_waits", d "qcache_singleflight_waits");
    ("xpath.parse_us", 1000. *. mean_ms "trace_xpath_parse");
    ("engine.eval_ms", mean_ms "trace_engine_eval");
    ("xupdate.parse_ms", mean_ms "trace_xupdate_parse");
    ("xupdate.apply_ms", mean_ms "trace_xupdate_apply");
    ("schema_up.page_overflows_per_commit", per_commit (d "schema_up_page_overflows"));
    ("pagemap.shifted_pages_per_commit", per_commit (d "pagemap_shifted_pages_sum"));
    ("txn.commit_ms", mean_ms "txn_commit_latency");
    ("txn.conflicts_per_commit", per_commit (d "txn_conflicts"));
    ("lock.wait_ms_per_commit", per_commit (1000. *. d "lock_wait_time_sum"));
    ("lock.deadlock_timeouts", d "lock_would_deadlock");
    ("client.retries_per_write", float_of_int retries /. float_of_int (max 1 writes));
    ("mvcc.commit_cs_ms", mean_ms "mvcc_commit_cs_latency");
    ("mvcc.captured_pages_per_commit", per_commit (d "mvcc_captured_pages"));
    ("wal.flush_ms", mean_ms "wal_fsync_latency");
    ("wal.bytes_per_commit", per "wal_bytes" "wal_frames");
    ("wal.bytes_per_user_byte", d "wal_bytes" /. float_of_int (max 1 user_bytes)) ]

(* ------------------------------------------------------------------ run -- *)

(* The measured window is cut into this many slices of equal length, with
   a probe of the host's speed between two slices. *)
let slices = 20

(* [setup_s] is the median of this many set-ups. *)
let setups = 5

(* Client connections, one thread each. The read-only mixes use one: with
   two, a read waits for the other client's request about half the time,
   and the median falls in the gap between reads that waited and reads
   that did not. serve-mixed keeps two, since reads queued behind writes
   are what it measures. *)
let connections = function Hot | Cold -> 1 | Mixed -> 2

(* [read_p99_ms] is the median of the tails of this many stretches of the
   window (see {!Check.grouped_tail}). The read-only mixes complete about
   ten thousand reads in the 14 s window BENCHMARK.json sets, so each of
   five stretches still has a p99 with ten samples beyond it; serve-mixed,
   with under two thousand, takes the tail of the whole window. *)
let tail_groups = function Hot | Cold -> 5 | Mixed -> 1

(* One run of [wl]. Given [replay], this is the short run inside the traced
   run: it starts the server once, skips the write epilogue, times no
   recovery, and adds [replay ctx]'s per-layer numbers to its own. Every
   time is scaled by the host's speed around it (see {!Host}). *)
let run ?replay env wl ~seconds =
  let traced = Option.is_some replay in
  let ctx = prepare env wl in
  let args = Option.fold ~none:[] ~some:(fun f -> [ "--doc"; "mirror=" ^ f ]) ctx.mirror_file in
  (* set-up time is the median of [setups] starts; the last server stays up *)
  let n = if traced then 1 else setups in
  let started =
    Host.each env.host n (fun i ->
        let file ext = Filename.concat env.dir (Printf.sprintf "serve%d.%s" i ext) in
        let s, t =
          Proc.spawn ~cpu:env.cpu ~xqdb:env.xqdb ~file:ctx.main_file ~args ~wal:(file "wal")
            ~ck:(file "ck") ~log:(file "log")
        in
        if i < n - 1 then Proc.kill s;
        (s, t))
  in
  let srv = fst (fst started.(n - 1)) in
  let clients = Array.init (connections wl) (client env wl) in
  let epi_client = client env wl 2 in
  let tallies = Array.map (fun _ -> tally ()) clients in
  let epi = tally () in
  let slice_len = seconds /. float_of_int slices in
  let layers, window, epilogue =
    Fun.protect
      ~finally:(fun () -> Proc.kill srv)
      (fun () ->
        let conns = Array.map (fun _ -> Proc.conn srv) clients in
        let phase = phase ctx conns clients tallies in
        phase ~seconds:(Float.min 2. (seconds /. 5.)) ~record:None;
        let before = Proc.scrape conns.(0) in
        Array.iter
          (fun c ->
            c.Proc.frames <- 0;
            c.frame_s <- 0.)
          conns;
        let window =
          Host.each env.host slices (fun i -> phase ~seconds:slice_len ~record:(Some i))
        in
        let frames = Array.fold_left (fun a c -> a + c.Proc.frames) 0 conns in
        let frame_s = Array.fold_left (fun a c -> a +. c.Proc.frame_s) 0. conns in
        let after = Proc.scrape conns.(0) in
        let epilogue =
          if wl = Mixed || traced then [||]
          else
            Host.each env.host slices (fun i ->
                guarded epi (fun () ->
                    for _ = 1 to epilogue_writes / slices do
                      run_op ctx conns.(0) epi_client epi ~record:(Some i)
                        (I.write_op ctx.sh epi_client (I.pair_cmds ctx.sh epi_client))
                    done))
        in
        Array.iter (fun c -> Unix.close c.Proc.fd) conns;
        let sum f = Array.fold_left (fun a t -> a + f t) 0 tallies in
        ( server_layers ~before ~after ~frames ~frame_s
            ~writes:(sum (fun t -> List.length t.writes))
            ~retries:(sum (fun t -> t.retries))
            ~user_bytes:(sum (fun t -> t.user_bytes)),
          Array.map snd window,
          Array.map snd epilogue ))
  in
  let all = epi :: Array.to_list tallies in
  List.iter
    (fun t ->
      List.iter
        (fun (req, body) ->
          if Check.payload ctx.main_ref req <> body then
            wrong t ("wrong answer to " ^ P.render_request req))
        t.pending)
    all;
  let (recover_s, raw_recover_s), lost =
    Check.recover ~host:env.host ~xqdb:env.xqdb ~cpu:env.cpu ~timed:(not traced) ~dir:env.dir
      ~ck:srv.ck ~wal:srv.wal
      ~docs:(if wl = Mixed then [ "main"; "mirror" ] else [ "main" ])
      ~verify:(Check.ledger ~reference:ctx.main_ref (epi_client :: Array.to_list clients))
  in
  let measured f = List.concat_map f (Array.to_list tallies) in
  let reads = measured (fun t -> t.reads) in
  let writes = if wl = Mixed then measured (fun t -> t.writes) else epi.writes in
  let scaled_writes = Check.scaled (if wl = Mixed then window else epilogue) writes in
  let tail_groups = tail_groups wl in
  let lat, notes =
    Check.latencies ~tail_groups ~reads:(Check.scaled window reads) ~writes:scaled_writes
  in
  let raw, _ = Check.latencies ~tail_groups ~reads ~writes in
  let ops = List.length reads + if wl = Mixed then List.length writes else 0 in
  let setup_s = Check.scaled_median (Array.map (fun ((_, t), k) -> (t, k)) started) in
  let raw_setup_s = Stats.median (Array.map (fun ((_, t), _) -> t) started) in
  let sum f = List.fold_left (fun a t -> a + f t) 0 all in
  let wrong = List.concat_map (fun t -> t.wrong) all in
  { Check.e2e = ("setup_s", setup_s) :: ("recover_s", recover_s) :: lat;
    layers = layers @ Option.fold ~none:[] ~some:(fun f -> f ctx) replay;
    attempted = sum (fun t -> t.attempted);
    failed = sum (fun t -> t.failed) + List.length lost;
    problems = wrong @ lost;
    notes =
      notes
      @ Check.unscaled (("setup_s", raw_setup_s) :: ("recover_s", raw_recover_s) :: raw)
        :: Printf.sprintf "throughput: %.6g operations/s (unscaled)" (float_of_int ops /. seconds)
        :: Printf.sprintf "UPDATEs resent after ERR aborted: %d" (sum (fun t -> t.retries))
        :: List.concat_map (fun t -> t.errors) all }
