(* Network server tests: protocol framing, the full verb set against an
   in-process server, robustness edges (malformed/oversized frames,
   half-closed sockets, shedding, request timeouts), graceful drain with an
   in-flight writer, and — via the built binary — SIGTERM and
   crash-during-serve recovery. *)

module P = Server.Protocol
module Db = Core.Db

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let with_dir f =
  let dir = Filename.temp_file "srv_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let doc_xml =
  {|<site><people><person id="p0"><name>Ann</name></person><person id="p1"><name>Bob</name></person></people></site>|}

let append_update id =
  Printf.sprintf
    {|<xupdate:modifications><xupdate:append select="/site/people"><person id="%s"><name>%s</name></person></xupdate:append></xupdate:modifications>|}
    id id

(* CI also runs this suite under XQDB_CACHE=off, which strips the result
   cache from every store; cache-specific expectations follow it. *)
let cache_off =
  match Sys.getenv_opt "XQDB_CACHE" with
  | Some v -> List.mem (String.lowercase_ascii (String.trim v)) [ "off"; "0" ]
  | None -> false

(* Start an in-process server on an ephemeral port, run [f port], always
   drain. [config] defaults keep timeouts long so unrelated tests never trip
   the watchdog. The store is cached unless [~cache:None]. *)
let with_server ?(config = Server.default_config)
    ?(cache = Some Db.default_cache) ?xml f =
  let db = Db.of_xml ?cache (Option.value ~default:doc_xml xml) in
  let srv = Server.start ~config db in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () -> f (Server.port srv))

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let with_conn port f =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let ok_body = function
  | Result.Ok (P.Ok body) -> body
  | Result.Ok (P.Err { code; msg }) -> Alcotest.failf "unexpected ERR %s: %s" code msg
  | Error e -> Alcotest.failf "transport error: %s" (P.read_error_text e)

let err_code = function
  | Result.Ok (P.Err { code; _ }) -> code
  | Result.Ok (P.Ok body) -> Alcotest.failf "unexpected OK: %s" body
  | Error e -> Alcotest.failf "transport error: %s" (P.read_error_text e)

(* ---------------------------------------------------------------- framing -- *)

let test_protocol_roundtrip () =
  let reqs =
    [ P.Ping; P.Query "//a"; P.Count "//a"; P.Explain "/x"; P.Profile "/x";
      P.Update "<xupdate:modifications/>"; P.Metrics; P.Cache_stats; P.Quit ]
  in
  List.iter
    (fun r ->
      match P.parse_request (P.render_request r) with
      | Result.Ok r' -> Alcotest.(check string) "roundtrip" (P.verb_name r) (P.verb_name r')
      | Error m -> Alcotest.failf "%s did not roundtrip: %s" (P.verb_name r) m)
    reqs;
  (match P.parse_request "query   //a  " with
  | Result.Ok (P.Query "//a") -> ()
  | _ -> Alcotest.fail "lowercase verb + padding should parse");
  (match P.parse_request "QUERY" with
  | Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "QUERY without argument must be rejected");
  (match P.parse_response (P.render_response (P.Err { code = "x"; msg = "m" })) with
  | Result.Ok (P.Err { code = "x"; msg = "m" }) -> ()
  | _ -> Alcotest.fail "response roundtrip");
  (* frame transport over socketpairs — a fresh pair per desynchronizing
     case, since Too_large/Malformed deliberately lose frame boundaries *)
  let with_pair f =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun fd -> try Unix.close fd with _ -> ()) [ a; b ])
      (fun () -> f a b)
  in
  with_pair (fun a b ->
      List.iter
        (fun payload ->
          P.write_frame a payload;
          match P.read_frame ~max_bytes:(1 lsl 20) b with
          | Result.Ok got -> Alcotest.(check string) "frame payload" payload got
          | Error e -> Alcotest.failf "read_frame: %s" (P.read_error_text e))
        [ ""; "x"; String.make 70_000 'q' ]);
  (* oversized: announced length beyond the bound, payload unread *)
  with_pair (fun a b ->
      P.write_frame a (String.make 2048 'z');
      match P.read_frame ~max_bytes:1024 b with
      | Error (P.Too_large { len = 2048; cap = 1024 }) -> ()
      | _ -> Alcotest.fail "expected Too_large {2048; 1024}");
  (* malformed: non-digit in the length header *)
  with_pair (fun a b ->
      let garbage = Bytes.of_string "12x\nrest" in
      ignore (Unix.write a garbage 0 (Bytes.length garbage));
      match P.read_frame ~max_bytes:1024 b with
      | Error (P.Malformed _) -> ()
      | _ -> Alcotest.fail "expected Malformed");
  (* half-closed writer: EOF mid-frame *)
  with_pair (fun a b ->
      let partial = Bytes.of_string "100\nonly-a-little" in
      ignore (Unix.write a partial 0 (Bytes.length partial));
      Unix.close a;
      match P.read_frame ~max_bytes:1024 b with
      | Error P.Closed_mid_frame -> ()
      | _ -> Alcotest.fail "expected Closed_mid_frame")

(* ------------------------------------------------------------------ verbs -- *)

let test_verbs_end_to_end () =
  with_server (fun port ->
      with_conn port (fun fd ->
          Alcotest.(check string) "ping" "pong" (ok_body (P.request fd P.Ping));
          Alcotest.(check string) "count" "2"
            (ok_body (P.request fd (P.Count "//person")));
          let q = ok_body (P.request fd (P.Query "//name")) in
          Alcotest.(check bool) "query count line" true (contains q "2\n");
          Alcotest.(check bool) "query items" true
            (contains q "<name>Ann</name>" && contains q "<name>Bob</name>");
          let att = ok_body (P.request fd (P.Query "//person/@id")) in
          Alcotest.(check bool) "attribute items" true (contains att {|id="p0"|});
          Alcotest.(check string) "update ack" "1"
            (ok_body (P.request fd (P.Update (append_update "p2"))));
          Alcotest.(check string) "update visible" "3"
            (ok_body (P.request fd (P.Count "//person")));
          let ex = ok_body (P.request fd (P.Explain "//person")) in
          Alcotest.(check bool) "explain has plan" true (contains ex "query: //person");
          let m = ok_body (P.request fd P.Metrics) in
          Alcotest.(check bool) "prometheus text" true
            (contains m "server_requests" && contains m "server_connections");
          let cs = ok_body (P.request fd P.Cache_stats) in
          Alcotest.(check bool) "cache stats" true
            (contains cs (if cache_off then "cache: disabled" else "entries"));
          Alcotest.(check string) "quit" "bye" (ok_body (P.request fd P.Quit));
          (* server closes after QUIT *)
          match P.read_frame ~max_bytes:1024 fd with
          | Error P.Eof -> ()
          | _ -> Alcotest.fail "connection should be closed after QUIT"))

let test_query_errors_leave_connection_usable () =
  with_server (fun port ->
      with_conn port (fun fd ->
          Alcotest.(check string) "xpath error" "parse"
            (err_code (P.request fd (P.Query "//[")));
          Alcotest.(check string) "bad update" "parse"
            (err_code (P.request fd (P.Update "<not-xupdate/>")));
          P.write_frame fd "FROBNICATE";
          (match P.read_frame ~max_bytes:(1 lsl 20) fd with
          | Result.Ok payload ->
            Alcotest.(check bool) "unknown verb is ERR proto" true
              (contains payload "ERR proto")
          | Error e -> Alcotest.failf "transport: %s" (P.read_error_text e));
          (* still alive after three error responses *)
          Alcotest.(check string) "still serving" "pong"
            (ok_body (P.request fd P.Ping))))

(* ------------------------------------------------------------ robustness -- *)

let test_oversized_frame_rejected () =
  let config = { Server.default_config with Server.max_frame_bytes = 1024 } in
  with_server ~config (fun port ->
      with_conn port (fun fd ->
          P.write_frame fd ("QUERY " ^ String.make 4096 'x');
          (match P.read_frame ~max_bytes:(1 lsl 20) fd with
          | Result.Ok payload -> (
            match P.parse_response payload with
            | Result.Ok (P.Err { code = "too-large"; _ }) -> ()
            | _ -> Alcotest.failf "expected ERR too-large, got %s" payload)
          | Error e -> Alcotest.failf "transport: %s" (P.read_error_text e));
          (* stream is desynchronized: server must close it *)
          match P.read_frame ~max_bytes:1024 fd with
          | Error P.Eof -> ()
          | _ -> Alcotest.fail "connection should close after too-large");
      (* ... and the process keeps serving new connections *)
      with_conn port (fun fd ->
          Alcotest.(check string) "alive" "pong" (ok_body (P.request fd P.Ping))))

let test_malformed_frame_rejected () =
  with_server (fun port ->
      with_conn port (fun fd ->
          let garbage = Bytes.of_string "hello there\n" in
          ignore (Unix.write fd garbage 0 (Bytes.length garbage));
          (match P.read_frame ~max_bytes:(1 lsl 20) fd with
          | Result.Ok payload ->
            Alcotest.(check bool) "ERR proto" true (contains payload "ERR proto")
          | Error e -> Alcotest.failf "transport: %s" (P.read_error_text e));
          match P.read_frame ~max_bytes:1024 fd with
          | Error P.Eof -> ()
          | _ -> Alcotest.fail "connection should close after malformed frame");
      with_conn port (fun fd ->
          Alcotest.(check string) "alive" "pong" (ok_body (P.request fd P.Ping))))

let test_half_closed_client () =
  with_server (fun port ->
      (* half-close before sending anything: server just reaps the conn *)
      with_conn port (fun fd -> Unix.shutdown fd Unix.SHUTDOWN_SEND);
      (* half-close after sending: the response must still come back *)
      with_conn port (fun fd ->
          P.write_frame fd "COUNT //person";
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          match P.read_frame ~max_bytes:(1 lsl 20) fd with
          | Result.Ok payload ->
            Alcotest.(check bool) "response on half-closed socket" true
              (contains payload "OK")
          | Error e -> Alcotest.failf "transport: %s" (P.read_error_text e));
      with_conn port (fun fd ->
          Alcotest.(check string) "alive" "pong" (ok_body (P.request fd P.Ping))))

let test_connection_cap_sheds () =
  let config = { Server.default_config with Server.max_connections = 1 } in
  with_server ~config (fun port ->
      with_conn port (fun held ->
          Alcotest.(check string) "first conn works" "pong"
            (ok_body (P.request held P.Ping));
          with_conn port (fun second ->
              match P.read_frame ~max_bytes:(1 lsl 20) second with
              | Result.Ok payload ->
                Alcotest.(check bool) "shed with ERR busy" true
                  (contains payload "ERR busy")
              | Error e -> Alcotest.failf "transport: %s" (P.read_error_text e));
          (* the held connection is unaffected by the shed one *)
          Alcotest.(check string) "held conn still works" "pong"
            (ok_body (P.request held P.Ping))))

let test_request_timeout_fires () =
  (* a 600ms request against a 150ms budget: the watchdog answers and cuts
     the connection while the worker is still evaluating *)
  Fault.reset ();
  Fault.arm Server.failpoint_site ~policy:(Fault.Hit 1) ~action:(Fault.Delay 0.6);
  Fun.protect ~finally:Fault.reset (fun () ->
      let config = { Server.default_config with Server.request_timeout_s = 0.15 } in
      with_server ~config (fun port ->
          with_conn port (fun fd ->
              let t0 = Unix.gettimeofday () in
              Alcotest.(check string) "timeout code" "timeout"
                (err_code (P.request fd (P.Count "//person")));
              Alcotest.(check bool) "answered before the worker finished" true
                (Unix.gettimeofday () -. t0 < 0.55);
              match P.read_frame ~max_bytes:1024 fd with
              | Error (P.Eof | P.Closed_mid_frame) -> ()
              | _ -> Alcotest.fail "connection should close after timeout");
          (* the late worker result is discarded; the server keeps serving *)
          with_conn port (fun fd ->
              Alcotest.(check string) "alive after timeout" "pong"
                (ok_body (P.request fd P.Ping)))))

let test_drain_finishes_inflight_writer () =
  with_dir (fun dir ->
      let ck = Filename.concat dir "drain.ck" in
      Fault.reset ();
      (* slow down exactly one request — the in-flight writer — so stop()
         provably overlaps it *)
      Fault.arm Server.failpoint_site ~policy:(Fault.Hit 1)
        ~action:(Fault.Delay 0.4);
      Fun.protect ~finally:Fault.reset (fun () ->
          let db = Db.of_xml ~wal_path:(Filename.concat dir "drain.wal") doc_xml in
          let config =
            { Server.default_config with Server.checkpoint_to = Some ck }
          in
          let srv = Server.start ~config db in
          Alcotest.(check bool) "initial checkpoint written" true
            (Sys.file_exists ck);
          let port = Server.port srv in
          let result = ref (Error P.Eof) in
          let writer =
            Thread.create
              (fun () ->
                with_conn port (fun fd ->
                    result := P.request fd (P.Update (append_update "inflight"))))
              ()
          in
          Thread.delay 0.1;
          (* update is mid-delay now *)
          Server.stop srv;
          Server.wait srv;
          Thread.join writer;
          Alcotest.(check string) "in-flight update acknowledged" "1"
            (ok_body !result);
          (* post-drain checkpoint carries the drained commit *)
          match Db.open_recovered ~checkpoint:ck () with
          | Error e -> Alcotest.failf "recovery: %s" (Db.Error.to_string e)
          | Ok db' ->
            Alcotest.(check bool) "drained commit in checkpoint" true
              (contains (Db.to_xml db') {|id="inflight"|})))

(* -------------------------------------------------- binary: SIGTERM/crash -- *)

let xqdb =
  List.find Sys.file_exists
    [ "../bin/xqdb.exe"; "_build/default/bin/xqdb.exe"; "bin/xqdb.exe" ]

(* Spawn [xqdb serve] redirected to a log file and wait for the "listening
   on" line to learn the ephemeral port. *)
let spawn_serve ?(env = []) ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let envp =
    Array.append (Unix.environment ()) (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) env))
  in
  let pid =
    Unix.create_process_env xqdb
      (Array.of_list (xqdb :: "serve" :: args))
      envp Unix.stdin fd fd
  in
  Unix.close fd;
  let rec port_of tries =
    if tries = 0 then
      Alcotest.failf "server did not start: %s" (read_file log)
    else
      let s = read_file log in
      match String.index_opt s ':' with
      | Some i when contains s "listening on" ->
        let j = ref (i + 1) in
        let n = String.length s in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
        int_of_string (String.sub s (i + 1) (!j - i - 1))
      | _ ->
        Thread.delay 0.05;
        port_of (tries - 1)
  in
  (pid, port_of 200)

let test_binary_sigterm_drains () =
  with_dir (fun dir ->
      let doc = Filename.concat dir "d.xml" in
      let ck = Filename.concat dir "d.ck" in
      let wal = Filename.concat dir "d.wal" in
      let log = Filename.concat dir "serve.log" in
      write_file doc doc_xml;
      let pid, port =
        spawn_serve ~log [ doc; "--wal"; wal; "--checkpoint"; ck; "--cache" ]
      in
      with_conn port (fun fd ->
          Alcotest.(check string) "update acked" "1"
            (ok_body (P.request fd (P.Update (append_update "durable"))));
          Alcotest.(check string) "count" "3"
            (ok_body (P.request fd (P.Count "//person"))));
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "server exited %d: %s" n (read_file log)
      | _ -> Alcotest.failf "server did not exit cleanly: %s" (read_file log));
      (* drain checkpointed with the WAL truncated: ck alone carries state *)
      Alcotest.(check int) "wal truncated to empty" 0
        (let st = Unix.stat wal in st.Unix.st_size);
      match Db.open_recovered ~wal_path:wal ~checkpoint:ck () with
      | Error e -> Alcotest.failf "recovery: %s" (Db.Error.to_string e)
      | Ok db ->
        (match Core.Schema_up.check_integrity (Db.store db) with
        | Ok () -> ()
        | Error m -> Alcotest.failf "integrity: %s" m);
        Alcotest.(check bool) "acked update survived the drain" true
          (contains (Db.to_xml db) {|id="durable"|}))

let test_binary_crash_during_serve_recovers () =
  with_dir (fun dir ->
      let doc = Filename.concat dir "d.xml" in
      let ck = Filename.concat dir "d.ck" in
      let wal = Filename.concat dir "d.wal" in
      let log = Filename.concat dir "serve.log" in
      write_file doc doc_xml;
      (* the third request SIGKILLs the server before it executes: the two
         acknowledged updates must survive via checkpoint + WAL replay *)
      let pid, port =
        spawn_serve
          ~env:[ ("XQDB_FAILPOINTS", Server.failpoint_site ^ "=crash@hit:3") ]
          ~log
          [ doc; "--wal"; wal; "--checkpoint"; ck ]
      in
      with_conn port (fun fd ->
          Alcotest.(check string) "first update acked" "1"
            (ok_body (P.request fd (P.Update (append_update "a1"))));
          Alcotest.(check string) "second update acked" "1"
            (ok_body (P.request fd (P.Update (append_update "a2"))));
          match P.request fd (P.Count "//person") with
          | Error (P.Eof | P.Closed_mid_frame) -> ()
          | Result.Ok r ->
            Alcotest.failf "request survived the crash: %s"
              (match r with P.Ok b -> b | P.Err { code; _ } -> code)
          | Error e -> Alcotest.failf "unexpected: %s" (P.read_error_text e));
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WSIGNALED s when s = Sys.sigkill -> ()
      | _ -> Alcotest.failf "expected SIGKILL, log: %s" (read_file log));
      match Db.open_recovered ~wal_path:wal ~checkpoint:ck () with
      | Error e -> Alcotest.failf "recovery: %s" (Db.Error.to_string e)
      | Ok db ->
        (match Core.Schema_up.check_integrity (Db.store db) with
        | Ok () -> ()
        | Error m -> Alcotest.failf "integrity: %s" m);
        let xml = Db.to_xml db in
        Alcotest.(check bool) "both acked updates recovered" true
          (contains xml {|id="a1"|} && contains xml {|id="a2"|}))

(* ---------------------------------------------------------------- catalog -- *)

let shop_xml n =
  let b = Buffer.create 64 in
  Buffer.add_string b "<shop>";
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf {|<item n="%d"/>|} i)
  done;
  Buffer.add_string b "</shop>";
  Buffer.contents b

let append_item id =
  Printf.sprintf
    {|<xupdate:modifications><xupdate:append select="/shop"><item n="%s"/></xupdate:append></xupdate:modifications>|}
    id

(* Pull one named counter out of a CACHE response ("misses 3" lines). *)
let cache_counter field fd =
  let text = ok_body (P.request fd P.Cache_stats) in
  let v = ref None in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ k; n ] when k = field -> v := int_of_string_opt n
      | _ -> ())
    (String.split_on_char '\n' text);
  match !v with
  | Some n -> n
  | None -> Alcotest.failf "no %S in CACHE response: %s" field text

let test_catalog_verbs_end_to_end () =
  with_server (fun port ->
      with_conn port (fun fd ->
          Alcotest.(check string) "initial catalog" Db.default_doc
            (ok_body (P.request fd P.Ls));
          Alcotest.(check string) "create beta" "beta"
            (ok_body (P.request fd (P.Create { name = "beta"; body = shop_xml 3 })));
          Alcotest.(check string) "create gamma" "gamma"
            (ok_body (P.request fd (P.Create { name = "gamma"; body = shop_xml 5 })));
          Alcotest.(check string) "ls is the sorted catalog"
            (String.concat "\n" (List.sort compare [ "beta"; "gamma"; Db.default_doc ]))
            (ok_body (P.request fd P.Ls));
          Alcotest.(check string) "scope to beta" "beta"
            (ok_body (P.request fd (P.Doc "beta")));
          Alcotest.(check string) "scoped count" "3"
            (ok_body (P.request fd (P.Count "//item")));
          Alcotest.(check string) "scoped update acked" "1"
            (ok_body (P.request fd (P.Update (append_item "extra"))));
          Alcotest.(check string) "scoped update visible" "4"
            (ok_body (P.request fd (P.Count "//item")));
          Alcotest.(check string) "rescope to default" Db.default_doc
            (ok_body (P.request fd (P.Doc Db.default_doc)));
          Alcotest.(check string) "default untouched by scoped write" "2"
            (ok_body (P.request fd (P.Count "//person")));
          Alcotest.(check string) "beta's items are not visible here" "0"
            (ok_body (P.request fd (P.Count "//item")));
          Alcotest.(check string) "unknown DOC" "catalog"
            (err_code (P.request fd (P.Doc "ghost")));
          Alcotest.(check string) "duplicate CREATE" "catalog"
            (err_code (P.request fd (P.Create { name = "beta"; body = shop_xml 1 })));
          Alcotest.(check string) "DROP of default refused" "catalog"
            (err_code (P.request fd (P.Drop Db.default_doc)));
          Alcotest.(check string) "drop gamma" "gamma"
            (ok_body (P.request fd (P.Drop "gamma")));
          Alcotest.(check string) "dropped doc unaddressable" "catalog"
            (err_code (P.request fd (P.Doc "gamma")));
          (* every catalog verb shows up in the per-verb request counters *)
          let m = ok_body (P.request fd P.Metrics) in
          List.iter
            (fun verb ->
              Alcotest.(check bool) (verb ^ " counted") true
                (contains m (Printf.sprintf {|server_requests{verb="%s"}|} verb)))
            [ "DOC"; "LS"; "CREATE"; "DROP" ]))

let test_catalog_cache_isolation () =
  (* a commit to the default document must not cost the scoped document its
     warm cache entries: per-document epochs, observed through CACHE *)
  with_server (fun port ->
      with_conn port (fun fd ->
          if cache_off then
            Alcotest.(check string) "no cache to isolate" "cache: disabled"
              (ok_body (P.request fd P.Cache_stats))
          else begin
          ignore (ok_body (P.request fd (P.Create { name = "beta"; body = shop_xml 4 })));
          ignore (ok_body (P.request fd (P.Doc "beta")));
          ignore (ok_body (P.request fd (P.Query "//item")));
          (* warm *)
          let h0 = cache_counter "hits" fd in
          ignore (ok_body (P.request fd (P.Query "//item")));
          Alcotest.(check bool) "repeat is served from cache" true
            (cache_counter "hits" fd > h0);
          ignore (ok_body (P.request fd (P.Doc Db.default_doc)));
          Alcotest.(check string) "commit to the default doc" "1"
            (ok_body (P.request fd (P.Update (append_update "p9"))));
          ignore (ok_body (P.request fd (P.Doc "beta")));
          let m0 = cache_counter "misses" fd in
          let h1 = cache_counter "hits" fd in
          ignore (ok_body (P.request fd (P.Query "//item")));
          Alcotest.(check int) "no cache miss on the unwritten doc"
            m0 (cache_counter "misses" fd);
          Alcotest.(check bool) "still a hit after the other doc's commit" true
            (cache_counter "hits" fd > h1)
          end))

(* ------------------------------------------------------ rendered bodies -- *)

(* QUERY bodies the server serialized, from its own METRICS scrape *)
let renders fd =
  let text = ok_body (P.request fd P.Metrics) in
  match
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "db_renders"; n ] -> int_of_string_opt n
        | _ -> None)
      (String.split_on_char '\n' text)
  with
  | Some n -> n
  | None -> Alcotest.fail "no db_renders in METRICS"

(* A QUERY body is the same bytes whether it was rendered now (a miss),
   served from the cache (a hit) or rendered by a server without a cache;
   the hit serializes nothing, EXPLAIN still sees a hit, and a commit moves
   the next QUERY to the new state. *)
let test_query_body_rendered_once () =
  let q = "//person" in
  let uncached =
    with_server ~cache:None (fun port ->
        with_conn port (fun fd -> ok_body (P.request fd (P.Query q))))
  in
  with_server (fun port ->
      with_conn port (fun fd ->
          let miss = ok_body (P.request fd (P.Query q)) in
          let r0 = renders fd in
          let hit = ok_body (P.request fd (P.Query q)) in
          Alcotest.(check string) "hit = miss, byte for byte" miss hit;
          Alcotest.(check string) "cached = uncached server" uncached miss;
          Alcotest.(check int) "a hit renders nothing"
            (if cache_off then 1 else 0)
            (renders fd - r0);
          let ex = ok_body (P.request fd (P.Explain q)) in
          Alcotest.(check bool) "EXPLAIN of a rendered entry is a hit" true
            (contains ex (if cache_off then "query: " ^ q else "cache: hit"));
          Alcotest.(check string) "update ack" "1"
            (ok_body (P.request fd (P.Update (append_update "p2"))));
          let after = ok_body (P.request fd (P.Query q)) in
          Alcotest.(check bool) "the next QUERY shows the commit" true
            (String.length after > 2
            && String.sub after 0 2 = "3\n"
            && contains after {|<person id="p2">|})))

(* DROP + CREATE of the same name restarts the document's epochs: a body
   cached for the old document must never answer for the new one, whether
   the new entry is filled by QUERY or upgraded from a COUNT's. *)
let test_drop_create_never_serves_old_body () =
  with_server (fun port ->
      with_conn port (fun fd ->
          let incarnation n =
            let create = P.Create { name = "beta"; body = shop_xml n } in
            ignore (ok_body (P.request fd create));
            ignore (ok_body (P.request fd (P.Doc "beta")))
          in
          incarnation 3;
          let old_body = ok_body (P.request fd (P.Query "//item")) in
          Alcotest.(check string) "old body, again" old_body
            (ok_body (P.request fd (P.Query "//item")));
          ignore (ok_body (P.request fd (P.Drop "beta")));
          incarnation 5;
          let fresh = ok_body (P.request fd (P.Query "//item")) in
          Alcotest.(check bool) "new document's body" true
            (String.sub fresh 0 2 = "5\n" && contains fresh {|<item n="4"/>|});
          ignore (ok_body (P.request fd (P.Drop "beta")));
          incarnation 3;
          Alcotest.(check string) "count fills the entry" "3"
            (ok_body (P.request fd (P.Count "//item")));
          Alcotest.(check string) "upgraded entry renders the new document"
            old_body
            (ok_body (P.request fd (P.Query "//item")))))

let test_catalog_concurrent_clients () =
  with_server (fun port ->
      with_conn port (fun fd ->
          ignore (ok_body (P.request fd (P.Create { name = "beta"; body = shop_xml 4 })));
          ignore (ok_body (P.request fd (P.Create { name = "gamma"; body = shop_xml 7 }))));
      let docs =
        [| (Db.default_doc, "//person", "/site/people",
            fun k -> Printf.sprintf {|<person id="c%d"/>|} k);
           ("beta", "//item", "/shop", fun k -> Printf.sprintf {|<item n="c%d"/>|} k);
           ("gamma", "//item", "/shop", fun k -> Printf.sprintf {|<item n="c%d"/>|} k)
        |]
      in
      let base = [| 2; 4; 7 |] in
      let errors = Atomic.make 0 in
      let client k () =
        let name, path, sel, frag = docs.(k mod 3) in
        with_conn port (fun fd ->
            match P.request fd (P.Doc name) with
            | Result.Ok (P.Ok _) ->
              for _ = 1 to 20 do
                match P.request fd (P.Count path) with
                | Result.Ok (P.Ok b) -> (
                  (* counts only grow, and never below the seeded size *)
                  match int_of_string_opt b with
                  | Some c when c >= base.(k mod 3) -> ()
                  | _ -> Atomic.incr errors)
                | _ -> Atomic.incr errors
              done;
              let upd =
                Printf.sprintf
                  {|<xupdate:modifications><xupdate:append select="%s">%s</xupdate:append></xupdate:modifications>|}
                  sel (frag k)
              in
              (* appends from clients sharing a document can lose the
                 first-committer-wins race: ERR aborted is the documented
                 retry signal, everything else is a real failure *)
              let rec commit attempts =
                match P.request fd (P.Update upd) with
                | Result.Ok (P.Ok "1") -> ()
                | Result.Ok (P.Err { code = "aborted"; _ }) when attempts < 20 ->
                  Thread.delay 0.01;
                  commit (attempts + 1)
                | _ -> Atomic.incr errors
              in
              commit 0
            | _ -> Atomic.incr errors)
      in
      let ts = List.init 9 (fun k -> Thread.create (client k) ()) in
      List.iter Thread.join ts;
      Alcotest.(check int) "no errors across 9 doc-scoped clients" 0
        (Atomic.get errors);
      (* each document absorbed exactly its own three writes *)
      with_conn port (fun fd ->
          Array.iteri
            (fun i (name, path, _, _) ->
              ignore (ok_body (P.request fd (P.Doc name)));
              Alcotest.(check string) (name ^ " final count")
                (string_of_int (base.(i) + 3))
                (ok_body (P.request fd (P.Count path))))
            docs))

(* ------------------------------------------------------------- concurrency -- *)

let test_concurrent_clients () =
  with_server (fun port ->
      let errors = Atomic.make 0 in
      let client k () =
        with_conn port (fun fd ->
            for i = 0 to 24 do
              let req =
                if (i + k) mod 3 = 0 then P.Count "//person"
                else P.Query "//name"
              in
              match P.request fd req with
              | Result.Ok (P.Ok _) -> ()
              | _ -> Atomic.incr errors
            done)
      in
      let ts = List.init 8 (fun k -> Thread.create (client k) ()) in
      List.iter Thread.join ts;
      Alcotest.(check int) "no protocol errors under 8 clients" 0
        (Atomic.get errors))

let () =
  Alcotest.run "server"
    [ ( "protocol",
        [ Alcotest.test_case "frame + verb roundtrips" `Quick
            test_protocol_roundtrip ] );
      ( "verbs",
        [ Alcotest.test_case "full verb set end-to-end" `Quick
            test_verbs_end_to_end;
          Alcotest.test_case "errors keep the connection" `Quick
            test_query_errors_leave_connection_usable ] );
      ( "robustness",
        [ Alcotest.test_case "oversized frame" `Quick test_oversized_frame_rejected;
          Alcotest.test_case "malformed frame" `Quick test_malformed_frame_rejected;
          Alcotest.test_case "half-closed sockets" `Quick test_half_closed_client;
          Alcotest.test_case "connection cap sheds" `Quick test_connection_cap_sheds;
          Alcotest.test_case "request timeout" `Quick test_request_timeout_fires;
          Alcotest.test_case "drain finishes in-flight writer" `Quick
            test_drain_finishes_inflight_writer ] );
      ( "binary",
        [ Alcotest.test_case "SIGTERM drains, WAL truncated" `Quick
            test_binary_sigterm_drains;
          Alcotest.test_case "crash mid-serve recovers acked updates" `Quick
            test_binary_crash_during_serve_recovers ] );
      ( "catalog",
        [ Alcotest.test_case "DOC/LS/CREATE/DROP end-to-end" `Quick
            test_catalog_verbs_end_to_end;
          Alcotest.test_case "cross-document cache isolation" `Quick
            test_catalog_cache_isolation;
          Alcotest.test_case "doc-scoped concurrent clients" `Quick
            test_catalog_concurrent_clients ] );
      ( "bodies",
        [ Alcotest.test_case "one render, identical bytes" `Quick
            test_query_body_rendered_once;
          Alcotest.test_case "DROP + CREATE never serves an old body" `Quick
            test_drop_create_never_serves_old_body ] );
      ( "concurrency",
        [ Alcotest.test_case "8 parallel clients" `Quick test_concurrent_clients ] ) ]
