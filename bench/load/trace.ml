(* The traced run: each workload's first seeded requests replayed in
   process, calling the layers in the order the server does, with an
   [Obs.Span] around every call. The spans the library opens itself
   (db.query, xpath.parse, engine.eval, engine.step) nest under these.
   The finished request trees stay in memory and are written to
   BENCH_load_trace.json at exit. *)

module Db = Core.Db
module P = Server.Protocol
module I = Inputs
module Span = Obs.Span

(* [on] is false during the untraced replays, which then pay one test per
   span. Replays run on one thread. *)
let on = ref false

let span name f = if !on then Span.with_ name f else f ()

(* The request trees of the traced replay under way, newest first, and
   those of every finished one with their workload. *)
let current = ref []

let traces = ref []

let requests = ref 0

let request f =
  if not !on then f ()
  else begin
    incr requests;
    let r, tree =
      Span.timed "request" (fun () ->
          Span.set_int "req" !requests;
          f ())
    in
    current := tree :: !current;
    r
  end

(* ------------------------------------------------------------- replays -- *)

let replayed = 500

type probe = {
  mutable evaluated : int;
  mutable steps : int;
  mutable scanned : int;
  mutable items : int;
  mutable reads : int;
  mutable render_bytes : int;
}

let read_op db probe ~doc req =
  let payload = P.render_request req in
  request (fun () ->
      let resp =
        match span "protocol.parse" (fun () -> P.parse_request payload) with
        | Ok (P.Query x | P.Count x) -> (
          let counting = match req with P.Count _ -> true | _ -> false in
          match
            span "db.read_txn" (fun () ->
                Db.read_txn ~doc db (fun s ->
                    Result.map
                      (fun (items, prof) ->
                        if prof.Core.Profile.cache <> Some Core.Profile.Hit then begin
                          probe.evaluated <- probe.evaluated + 1;
                          List.iter
                            (fun st ->
                              probe.steps <- probe.steps + 1;
                              probe.scanned <- probe.scanned + st.Core.Profile.scanned)
                            prof.steps;
                          probe.items <- probe.items + prof.items
                        end;
                        if counting then string_of_int (List.length items)
                        else
                          span "render.serialize" (fun () ->
                              Check.render (Db.Session.view s) items))
                      (Db.Session.query_profiled s x)))
          with
          | Ok (Ok body) ->
            probe.reads <- probe.reads + 1;
            probe.render_bytes <- probe.render_bytes + String.length body;
            P.Ok body
          | Ok (Error e) | Error e -> P.Err { code = "db"; msg = Db.Error.to_string e })
        | _ -> P.Err { code = "proto"; msg = payload }
      in
      ignore (span "protocol.render" (fun () -> P.render_response resp)))

let write_op db c cmds body =
  let payload = P.render_request (P.Update body) in
  request (fun () ->
      let resp =
        match span "protocol.parse" (fun () -> P.parse_request payload) with
        | Ok (P.Update body) -> (
          let parsed = span "xupdate.parse" (fun () -> Core.Xupdate.parse body) in
          match
            span "db.write_txn" (fun () ->
                Db.write_txn db (fun s ->
                    span "xupdate.apply" (fun () ->
                        Core.Xupdate.apply (Db.Session.view s) parsed)))
          with
          | Ok n ->
            I.acked c cmds;
            P.Ok (string_of_int n)
          | Error e ->
            I.failed c cmds;
            P.Err { code = "db"; msg = Db.Error.to_string e })
        | _ -> P.Err { code = "proto"; msg = payload }
      in
      ignore (span "protocol.render" (fun () -> P.render_response resp)))

(* A store built the way [xqdb serve] builds it, fed the first [replayed]
   requests of the clients' seeded streams, interleaved. *)
let replay_serve (env : Serve.env) (ctx : Serve.ctx) probe =
  let wal = Filename.concat env.dir "replay.wal" in
  if Sys.file_exists wal then Sys.remove wal;
  let db =
    Db.of_xml ~cache:Db.default_cache ~wal_path:wal (Inputs.read_file ctx.main_file)
  in
  Option.iter
    (fun f -> Check.get (Db.create_doc_xml db "mirror" (Inputs.read_file f)))
    ctx.mirror_file;
  Db.checkpoint db (Filename.concat env.dir "replay.ck");
  let clients = Array.init (Serve.connections ctx.wl) (Serve.client env ctx.wl) in
  let t0 = Proc.now () in
  for i = 0 to replayed - 1 do
    let c = clients.(i mod Array.length clients) in
    match Serve.next_op ctx c with
    | I.Read { doc; req; _ } -> read_op db probe ~doc req
    | I.Write { cmds; body } -> write_op db c cmds body
  done;
  let t = Proc.now () -. t0 in
  Db.close db;
  t

let replay_xmark (st : Snapshot.store) rng =
  let t0 = Proc.now () in
  List.iter
    (fun q ->
      request (fun () ->
          span "db.read" (fun () ->
              Db.read st.db (fun v ->
                  span "xmark.query" (fun () -> ignore (Snapshot.Q_view.run v q))))))
    (Snapshot.order rng);
  Proc.now () -. t0

(* ------------------------------------------------------------ analysis -- *)

let children_dur (s : Span.t) = List.fold_left (fun a c -> a +. c.Span.dur) 0. s.children

(* Self time per span name (its duration minus its children's) below the
   request spans, and the share of request time those children cover. *)
let analyse trees =
  let self = Hashtbl.create 16 in
  let rec walk (s : Span.t) =
    Hashtbl.replace self s.name
      (s.dur -. children_dur s +. Option.value ~default:0. (Hashtbl.find_opt self s.name));
    List.iter walk s.children
  in
  let covered, total =
    List.fold_left
      (fun (c, t) (r : Span.t) ->
        List.iter walk r.children;
        (c +. children_dur r, t +. r.dur))
      (0., 0.) trees
  in
  (self, covered /. total)

(* Replay three times — untraced, traced, untraced — and derive [wl]'s
   per-layer numbers from the traced replay. [replay] returns the seconds
   its requests took. *)
let replays wl replay =
  let probe () =
    { evaluated = 0; steps = 0; scanned = 0; items = 0; reads = 0; render_bytes = 0 }
  in
  let plain1 = replay (probe ()) in
  let p = probe () in
  on := true;
  current := [];
  let traced = replay p in
  on := false;
  let plain2 = replay (probe ()) in
  let trees = List.rev !current in
  traces := !traces @ [ (wl, trees) ];
  let self, coverage = analyse trees in
  let per_req x = 1e6 *. x /. float_of_int (max 1 (List.length trees)) in
  let per n x = if n > 0 then float_of_int x /. float_of_int n else 0. in
  [ ("trace.coverage", coverage);
    ("trace.overhead_frac", (2. *. traced /. (plain1 +. plain2)) -. 1.) ]
  @ Hashtbl.fold (fun name s acc -> (Printf.sprintf "self.%s_us" name, per_req s) :: acc) self []
  @ [ ("engine.steps_per_query", per p.evaluated p.steps);
      ("engine.scanned_per_item", per p.items p.scanned);
      ( "render.us_per_read",
        1e6
        *. Option.value ~default:0. (Hashtbl.find_opt self "render.serialize")
        /. float_of_int (max 1 p.reads) );
      ("render.bytes_per_read", per p.reads p.render_bytes) ]

let serve env (ctx : Serve.ctx) = replays (Serve.name ctx.wl) (replay_serve env ctx)

let xmark (env : Serve.env) st =
  let rng = Random.State.make [| env.seed; 0 |] in
  replays "xmark-snapshot" (fun _ -> replay_xmark st rng)

(* Chrome [trace_event] JSON: one complete event per span, on one track
   per workload, with the span's id, its parent's (-1 for a request) and
   its request's. *)
let write_file path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 =
        match !traces with (_, r :: _) :: _ -> r.Span.start | _ -> 0.
      in
      let next = ref 0 and first = ref true in
      let rec emit wl ~parent ~req (s : Span.t) =
        let id = !next in
        incr next;
        let req =
          match List.assoc_opt "req" s.attrs with Some (Span.Int r) -> r | _ -> req
        in
        Printf.fprintf oc
          "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": \"%s\", \"args\": {\"id\": %d, \"parent\": %d, \"req\": %d}}"
          (if !first then "" else ",\n")
          s.name wl
          (1e6 *. (s.start -. t0))
          (1e6 *. s.dur) wl id parent req;
        first := false;
        List.iter (emit wl ~parent:id ~req) s.children
      in
      output_string oc "{\"traceEvents\": [\n";
      List.iter (fun (wl, trees) -> List.iter (emit wl ~parent:(-1) ~req:(-1)) trees) !traces;
      output_string oc "\n]}\n")
