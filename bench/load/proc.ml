(* The server under test as a child process, and the client side of the
   wire: connections, timed round trips and METRICS scrapes. *)

module P = Server.Protocol

let now = Obs.monotonic

type server = {
  pid : int;
  mutable port : int;
  wal : string;
  ck : string;
  mutable alive : bool;
}

(* SIGKILL and reap; a second call on the same server does nothing (its pid
   may belong to another process by then). *)
let kill s =
  if s.alive then begin
    s.alive <- false;
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid)
  end

let connect s =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, s.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

(* [create_process prog argv ...], on CPU [cpu] when it is given. *)
let create_process ?cpu prog argv stdin stdout stderr =
  match cpu with
  | None -> Unix.create_process prog argv stdin stdout stderr
  | Some c ->
    Unix.create_process "taskset"
      (Array.append [| "taskset"; "-c"; string_of_int c |] argv)
      stdin stdout stderr

(* Start [xqdb serve FILE --cache --wal W --checkpoint CK ARGS], on CPU
   [cpu] when it is given, and wait until it answers PING; returns the
   server and the seconds that took. The server's stderr goes to LOG; its
   only stdout line names the bound port. *)
let spawn ~cpu ~xqdb ~file ~args ~wal ~ck ~log =
  let t0 = now () in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    [ xqdb; "serve"; file; "--cache"; "--wal"; wal; "--checkpoint"; ck ] @ args
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close w;
        Unix.close logfd)
      (fun () -> create_process ?cpu xqdb (Array.of_list argv) Unix.stdin w logfd)
  in
  let s = { pid; port = 0; wal; ck; alive = true } in
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  let ready =
    match String.rindex_opt line ':' with
    | None -> false
    | Some i -> (
      match int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
      | None -> false
      | Some port ->
        s.port <- port;
        let fd = connect s in
        let pong = P.request fd P.Ping in
        Unix.close fd;
        pong = Ok (P.Ok "pong"))
  in
  if not ready then begin
    kill s;
    failwith (Printf.sprintf "xqdb serve did not start (see %s)" log)
  end;
  (s, now () -. t0)

(* One connection of the load: its DOC scope and the time spent in its
   round trips, from which [server.outside_ms] is derived. *)
type conn = {
  fd : Unix.file_descr;
  mutable scope : string;
  mutable frames : int;
  mutable frame_s : float;
}

let conn s = { fd = connect s; scope = "main"; frames = 0; frame_s = 0. }

exception Io of string

let send c req =
  let t0 = now () in
  let r = P.request c.fd req in
  c.frames <- c.frames + 1;
  c.frame_s <- c.frame_s +. (now () -. t0);
  match r with Ok resp -> resp | Error e -> raise (Io (P.read_error_text e))

(* Summed values of every series in a Prometheus text, keyed by metric name
   without labels ([_bucket] series are skipped). *)
let scrape c =
  match send c P.Metrics with
  | P.Err { msg; _ } -> raise (Io msg)
  | P.Ok text ->
    let tbl = Hashtbl.create 128 in
    List.iter
      (fun line ->
        match String.rindex_opt line ' ' with
        | Some i when line.[0] <> '#' ->
          let series = String.sub line 0 i in
          let name =
            match String.index_opt series '{' with
            | Some j -> String.sub series 0 j
            | None -> series
          in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          if not (String.ends_with ~suffix:"_bucket" name) then
            Option.iter
              (fun v ->
                Hashtbl.replace tbl name
                  (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name)))
              (float_of_string_opt v)
        | _ -> ())
      (String.split_on_char '\n' text);
    tbl

let delta before after name =
  let get t = Option.value ~default:0. (Hashtbl.find_opt t name) in
  get after -. get before
