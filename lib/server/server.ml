(* Thread-per-connection TCP server over Core.Db; see server.mli for the
   lifecycle and robustness contract. *)

module Protocol = Protocol
module Db = Core.Db

let failpoint_site = "server.request"

(* ------------------------------------------------------------ instruments -- *)

let m_connections =
  Obs.gauge ~help:"live client connections" "server.connections"

let m_accepted = Obs.counter ~help:"connections admitted" "server.accepted"

let m_shed =
  Obs.counter ~help:"connections shed at the max-connection cap" "server.shed"

let m_frames_rejected =
  Obs.counter ~help:"malformed/oversized/truncated request frames"
    "server.frames_rejected"

let m_timeouts =
  Obs.counter ~help:"requests cut off by the per-request timeout"
    "server.timeouts"

let m_slow_drops =
  Obs.counter ~help:"connections dropped on the send deadline (slow client)"
    "server.slow_client_drops"

let m_bytes_in = Obs.counter ~help:"request payload bytes" "server.bytes_in"

let m_bytes_out = Obs.counter ~help:"response payload bytes" "server.bytes_out"

let m_request_time =
  Obs.histogram ~help:"request wall time [s]" "server.request_time"

let m_drains = Obs.counter ~help:"graceful drains completed" "server.drains"

(* per-verb/per-code counter families, registered idempotently *)
let m_requests verb =
  Obs.counter ~help:"requests by verb" ~labels:[ ("verb", verb) ]
    "server.requests"

let m_errors code =
  Obs.counter ~help:"error responses by code" ~labels:[ ("code", code) ]
    "server.errors"

(* ---------------------------------------------------------------- config -- *)

type config = {
  host : string;
  port : int;
  max_connections : int;
  max_frame_bytes : int;
  request_timeout_s : float;
  write_deadline_s : float;
  drain_grace_s : float;
  checkpoint_to : string option;
}

let default_config =
  { host = "127.0.0.1";
    port = 0;
    max_connections = 64;
    max_frame_bytes = 4 * 1024 * 1024;
    request_timeout_s = 30.0;
    write_deadline_s = 10.0;
    drain_grace_s = 5.0;
    checkpoint_to = None }

(* ----------------------------------------------------------- connections -- *)

(* [wmu] guards the response side of one connection: [deadline]/[timed_out]
   (watchdog vs worker race) and [closed] (exactly-once close). The read
   side is only ever touched by the worker thread. *)
type conn = {
  id : int;
  fd : Unix.file_descr;
  wmu : Mutex.t;
  mutable deadline : float option; (* monotonic; Some while a request runs *)
  mutable timed_out : bool;
  mutable closed : bool;
  mutable doc : string;
      (* DOC scope of this connection; only the worker thread touches it.
         Starts at the default document, so doc-unaware clients behave
         exactly as before the catalog existed. *)
}

type t = {
  cfg : config;
  db : Db.t;
  par : Core.Par.t option;
  lfd : Unix.file_descr;
  bound_port : int;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t; (* drain complete *)
  conns : (int, conn) Hashtbl.t;
  cmu : Mutex.t;
  mutable accept_thr : Thread.t option;
  mutable watchdog_thr : Thread.t option;
}

let port t = t.bound_port

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* Close exactly once, under [wmu]; safe from worker, watchdog and drain. *)
let close_conn c =
  locked c.wmu (fun () ->
      if not c.closed then begin
        c.closed <- true;
        (try Unix.close c.fd with Unix.Unix_error _ -> ())
      end)

let unregister t c =
  let removed =
    locked t.cmu (fun () ->
        if Hashtbl.mem t.conns c.id then begin
          Hashtbl.remove t.conns c.id;
          true
        end
        else false)
  in
  if removed then Obs.gauge_add m_connections (-1.0);
  close_conn c

(* Best-effort response write honouring the timeout watchdog: after the
   watchdog answered for us, the late result is discarded. Returns false
   when the connection is no longer usable. *)
let send_response c payload =
  locked c.wmu (fun () ->
      c.deadline <- None;
      if c.timed_out || c.closed then false
      else
        match Protocol.write_frame c.fd payload with
        | () ->
          Obs.add m_bytes_out (String.length payload);
          true
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* SO_SNDTIMEO expired: the peer stopped draining its socket *)
          Obs.inc m_slow_drops;
          false
        | exception Unix.Unix_error _ -> false)

(* After answering on a desynchronized stream (oversized/malformed frame)
   the connection must close — but closing with unread bytes in the receive
   buffer makes the kernel send RST, which can destroy the error frame
   before the peer reads it. So: half-close the send side and drain
   whatever the peer already wrote until its FIN arrives, bounded by a 1s
   receive timeout. *)
let linger_close c =
  (try Unix.shutdown c.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 1.0
   with Unix.Unix_error _ -> ());
  let buf = Bytes.create 4096 in
  try
    while Unix.read c.fd buf 0 4096 > 0 do
      ()
    done
  with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------- execution -- *)

let err_code : Db.Error.t -> string = function
  | Db.Error.Parse _ -> "parse"
  | Db.Error.Aborted _ -> "aborted"
  | Db.Error.Apply _ -> "apply"
  | Db.Error.Corrupt _ -> "corrupt"
  | Db.Error.Io _ -> "io"
  | Db.Error.Catalog _ -> "catalog"

let err e = Protocol.Err { code = err_code e; msg = Db.Error.to_string e }

(* Body of a QUERY response: result count, then one serialized item per
   line-group (subtrees are themselves multi-line only when indented — they
   are not — so one line each; attributes render as name="value"). *)
let render_items s items =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int (List.length items));
  List.iter
    (fun item ->
      Buffer.add_char b '\n';
      Buffer.add_string b (Db.Session.serialize_item s item))
    items;
  Buffer.contents b

let cache_stats_text db =
  match Db.cache_stats db with
  | None -> "cache: disabled"
  | Some st ->
    Printf.sprintf
      "entries %d/%d\nbytes %d/%d\nhits %d\nmisses %d\nplan_hits %d\n\
       plan_misses %d\nevictions %d\nsingleflight_waits %d"
      st.Core.Qcache.entries st.Core.Qcache.max_entries st.Core.Qcache.bytes
      st.Core.Qcache.max_bytes st.Core.Qcache.hits st.Core.Qcache.misses
      st.Core.Qcache.plan_hits st.Core.Qcache.plan_misses
      st.Core.Qcache.evictions st.Core.Qcache.singleflight_waits

(* One read request = one pinned snapshot of the connection's current
   document; [f] folds the session's own result into the response body. *)
let in_read t ~doc f =
  match Db.read_txn ?par:t.par ~doc t.db f with
  | Ok (Ok body) -> Protocol.Ok body
  | Ok (Error e) | Error e -> err e

let exec t c (req : Protocol.request) : Protocol.response =
  let doc = c.doc in
  match req with
  | Protocol.Ping -> Protocol.Ok "pong"
  | Protocol.Quit -> Protocol.Ok "bye"
  | Protocol.Metrics -> Protocol.Ok (Obs.render_prometheus (Obs.snapshot ()))
  | Protocol.Cache_stats -> Protocol.Ok (cache_stats_text t.db)
  | Protocol.Query x ->
    in_read t ~doc (fun s ->
        Result.map (render_items s) (Db.Session.query s x))
  | Protocol.Count x ->
    in_read t ~doc (fun s -> Result.map string_of_int (Db.Session.count s x))
  | Protocol.Explain x -> (
    match Db.query_profiled ?par:t.par ~doc t.db x with
    | Ok (_, p) -> Protocol.Ok (Core.Profile.render_explain ~timings:false p)
    | Error e -> err e)
  | Protocol.Profile x -> (
    match Db.query_profiled ?par:t.par ~doc t.db x with
    | Ok (_, p) -> Protocol.Ok (Core.Profile.render_explain p)
    | Error e -> err e)
  | Protocol.Update body -> (
    match Db.update ~doc t.db body with
    | Ok n -> Protocol.Ok (string_of_int n)
    | Error e -> err e)
  | Protocol.Doc name ->
    (* Validate eagerly so a typo fails here, not on the next QUERY; the
       scope sticks until the next DOC (even if the document is later
       dropped — queries then fail with the same catalog error). *)
    if List.mem name (Db.list_docs t.db) then begin
      c.doc <- name;
      Protocol.Ok name
    end
    else err (Db.Error.Catalog ("no such document: " ^ name))
  | Protocol.Ls -> Protocol.Ok (String.concat "\n" (Db.list_docs t.db))
  | Protocol.Create { name; body } -> (
    match Db.create_doc_xml t.db name body with
    | Ok () -> Protocol.Ok name
    | Error e -> err e)
  | Protocol.Drop name -> (
    match Db.drop_doc t.db name with
    | Ok () -> Protocol.Ok name
    | Error e -> err e)

(* ------------------------------------------------------------ connection -- *)

let respond c (resp : Protocol.response) =
  (match resp with
  | Protocol.Err { code; _ } -> Obs.inc (m_errors code)
  | Protocol.Ok _ -> ());
  send_response c (Protocol.render_response resp)

let handle_frame t c payload =
  Obs.add m_bytes_in (String.length payload);
  match Protocol.parse_request payload with
  | Error msg ->
    (* bad verb, intact framing: answer and keep the connection *)
    Obs.inc m_frames_rejected;
    if respond c (Protocol.Err { code = "proto"; msg }) then `Continue
    else `Close
  | Ok req ->
    Obs.inc (m_requests (Protocol.verb_name req));
    locked c.wmu (fun () ->
        c.timed_out <- false;
        c.deadline <-
          (if t.cfg.request_timeout_s > 0.0 then
             Some (Obs.monotonic () +. t.cfg.request_timeout_s)
           else None));
    Fault.hit failpoint_site;
    let t0 = Obs.monotonic () in
    let resp = exec t c req in
    Obs.observe m_request_time (Obs.monotonic () -. t0);
    let sent = respond c resp in
    match req with
    | Protocol.Quit -> `Close
    | _ -> if sent then `Continue else `Close

let serve_conn t c =
  let rec loop () =
    if Atomic.get t.stopping then ()
    else
      match Protocol.read_frame ~max_bytes:t.cfg.max_frame_bytes c.fd with
      | Ok payload -> ( match handle_frame t c payload with
        | `Continue -> loop ()
        | `Close -> ())
      | Error Protocol.Eof -> ()
      | Error Protocol.Closed_mid_frame ->
        (* half-closed or died mid-upload: nothing to answer *)
        Obs.inc m_frames_rejected
      | Error (Protocol.Too_large _ as e) ->
        Obs.inc m_frames_rejected;
        ignore
          (respond c
             (Protocol.Err
                { code = "too-large"; msg = Protocol.read_error_text e }));
        (* stream is desynchronized: close (gently — the peer still has an
           error frame to read) *)
        linger_close c
      | Error (Protocol.Malformed msg) ->
        Obs.inc m_frames_rejected;
        ignore (respond c (Protocol.Err { code = "proto"; msg }));
        linger_close c
  in
  (* A connection thread must never take the process down: protocol and
     socket trouble is handled above; anything else is logged to the error
     counter and the connection dropped. *)
  (try loop ()
   with e ->
     Obs.inc (m_errors "internal");
     ignore
       (respond c
          (Protocol.Err { code = "internal"; msg = Printexc.to_string e })));
  unregister t c

(* -------------------------------------------------------------- watchdog -- *)

(* Scan live connections for matured request deadlines. OCaml threads cannot
   be cancelled, so the watchdog answers the client ([ERR timeout]) and
   shuts the socket down; the worker keeps evaluating, discovers
   [timed_out] when it tries to respond, and discards its result. *)
let watchdog t =
  while not (Atomic.get t.stopped) do
    Thread.delay 0.05;
    let now = Obs.monotonic () in
    let overdue =
      locked t.cmu (fun () ->
          Hashtbl.fold
            (fun _ c acc ->
              match c.deadline with
              | Some d when now > d && not c.timed_out -> c :: acc
              | _ -> acc)
            t.conns [])
    in
    List.iter
      (fun c ->
        let fired =
          locked c.wmu (fun () ->
              match c.deadline with
              | Some d when now > d && (not c.timed_out) && not c.closed ->
                c.timed_out <- true;
                c.deadline <- None;
                (try
                   Protocol.write_frame c.fd
                     (Protocol.render_response
                        (Protocol.Err
                           { code = "timeout"; msg = "request deadline exceeded" }))
                 with Unix.Unix_error _ -> ());
                (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
                 with Unix.Unix_error _ -> ());
                true
              | _ -> false)
        in
        if fired then begin
          Obs.inc m_timeouts;
          Obs.inc (m_errors "timeout")
        end)
      overdue
  done

(* ----------------------------------------------------------------- drain -- *)

let live_conns t = locked t.cmu (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])

(* Graceful drain: the listener is already closed (accept loop exited).
   Wake idle readers by shutting the receive side — workers mid-request
   keep their write side and flush their response — then wait out the
   grace period, hard-close stragglers, and checkpoint the final state. *)
let drain t =
  List.iter
    (fun c ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    (live_conns t);
  let waited = ref 0.0 in
  while live_conns t <> [] && !waited < t.cfg.drain_grace_s do
    Thread.delay 0.02;
    waited := !waited +. 0.02
  done;
  (match live_conns t with
  | [] -> ()
  | stragglers ->
    List.iter
      (fun c ->
        (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        ignore c)
      stragglers;
    let extra = ref 0.0 in
    while live_conns t <> [] && !extra < 1.0 do
      Thread.delay 0.02;
      extra := !extra +. 0.02
    done);
  (* Every writer that was answered has committed by now (responses are sent
     after Db.update returns), so the checkpoint is a superset of every
     acknowledged state and truncating the WAL loses nothing — see the
     ordering argument in DESIGN.md. *)
  Option.iter
    (fun path -> Db.checkpoint ~truncate_wal:true t.db path)
    t.cfg.checkpoint_to;
  Obs.inc m_drains;
  Atomic.set t.stopped true

(* ---------------------------------------------------------------- accept -- *)

let shed fd =
  Obs.inc m_shed;
  (try
     Protocol.write_frame fd
       (Protocol.render_response
          (Protocol.Err { code = "busy"; msg = "connection limit reached" }))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let conn_ids = Atomic.make 0

let accept_loop t =
  while not (Atomic.get t.stopping) do
    (* poll so stop/SIGTERM is noticed within 200ms even with no traffic *)
    match Unix.select [ t.lfd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept t.lfd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> ()
      | fd, _peer ->
        if Atomic.get t.stopping then shed fd
        else begin
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          if t.cfg.write_deadline_s > 0.0 then
            (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.write_deadline_s
             with Unix.Unix_error _ -> ());
          let admitted =
            locked t.cmu (fun () ->
                if Hashtbl.length t.conns >= t.cfg.max_connections then None
                else begin
                  let c =
                    { id = Atomic.fetch_and_add conn_ids 1;
                      fd;
                      wmu = Mutex.create ();
                      deadline = None;
                      timed_out = false;
                      closed = false;
                      doc = Db.default_doc }
                  in
                  Hashtbl.replace t.conns c.id c;
                  Some c
                end)
          in
          match admitted with
          | None -> shed fd
          | Some c ->
            Obs.inc m_accepted;
            Obs.gauge_add m_connections 1.0;
            ignore (Thread.create (fun () -> serve_conn t c) ())
        end)
  done;
  (try Unix.close t.lfd with Unix.Unix_error _ -> ());
  drain t

(* ------------------------------------------------------------- lifecycle -- *)

let start ?(config = default_config) ?par db =
  (* a dying client must surface as EPIPE on our write, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Option.iter (fun path -> Db.checkpoint db path) config.checkpoint_to;
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen lfd 64
   with e ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let t =
    { cfg = config;
      db;
      par;
      lfd;
      bound_port;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      conns = Hashtbl.create 32;
      cmu = Mutex.create ();
      accept_thr = None;
      watchdog_thr = None }
  in
  t.accept_thr <- Some (Thread.create (fun () -> accept_loop t) ());
  t.watchdog_thr <- Some (Thread.create (fun () -> watchdog t) ());
  t

let stop t = Atomic.set t.stopping true

let wait t =
  Option.iter Thread.join t.accept_thr;
  Option.iter Thread.join t.watchdog_thr

let run ?config ?par db =
  let t = start ?config ?par db in
  let on_signal _ = stop t in
  let saved_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let saved_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm saved_term;
      Sys.set_signal Sys.sigint saved_int)
    (fun () -> wait t)
