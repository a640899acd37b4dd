(* A store is a CATALOG of named documents. Each document owns its own
   plane, pagemap, locks, version chain and schema (a private Txn.manager);
   all documents share one commit lane (commit mutex + WAL), one query
   cache and one domain pool. The document named [default_doc] plays the
   role the whole store used to: every entry point defaults to it, so
   single-document callers never mention documents at all. *)
type doc_entry = {
  name : string;
  doc_id : int;  (* tags this document's WAL records; never reused *)
  mgr : Txn.manager;
  doc_schema : Validate.t option;
}

type t = {
  lane : Txn.shared;
  wal_handle : Wal.t option;
  cache : cache_t option;
  mutable docs : doc_entry list; (* catalog order = creation order *)
  cat_mu : Mutex.t; (* guards [docs] / [next_doc_id], never held during I/O *)
  mutable next_doc_id : int;
}

and cache_t = item_list Qcache.t

and item_list = Engine.Make(View).item list

module E = Engine.Make (View)
module Ser = Node_serialize.Make (View)

let default_doc = "main"

(* ---------------------------------------------------------------- errors -- *)

module Error = struct
  type t =
    | Parse of { source : string; msg : string }
    | Aborted of string
    | Apply of string
    | Corrupt of string
    | Io of string
    | Catalog of string

  let to_string = function
    | Parse { source; msg } -> Printf.sprintf "%s error: %s" source msg
    | Aborted msg -> "transaction aborted: " ^ msg
    | Apply msg -> "update failed: " ^ msg
    | Corrupt msg -> "corrupt store: " ^ msg
    | Io msg -> "i/o error: " ^ msg
    | Catalog msg -> "catalog error: " ^ msg
end

exception Failed of Error.t

let get_exn = function Ok v -> v | Error e -> raise (Failed e)

let no_such_doc name = Error.Catalog ("no such document: " ^ name)

(* One funnel from the unrelated exception families the layers below raise
   to the unified [Error.t]. Unknown exceptions still escape: they are bugs,
   not results. *)
let capture f =
  match f () with
  | v -> Ok v
  | exception Failed e -> Error e
  | exception Xpath.Xpath_parser.Syntax_error { pos; msg } ->
    Error (Error.Parse { source = "xpath"; msg = Printf.sprintf "at %d: %s" pos msg })
  | exception Xml.Xml_parser.Parse_error { line; col; msg } ->
    Error (Error.Parse { source = "xml"; msg = Printf.sprintf "%d:%d: %s" line col msg })
  | exception Xupdate.Parse_error msg ->
    Error (Error.Parse { source = "xupdate"; msg })
  | exception Xupdate.Apply_error msg -> Error (Error.Apply msg)
  (* append's attribute content reaches Update.set_attribute outside the
     wrapper that turns Update_error into Apply_error *)
  | exception Update.Update_error msg -> Error (Error.Apply msg)
  | exception Txn.Aborted msg -> Error (Error.Aborted msg)
  | exception Lock.Would_deadlock { owner; page } ->
    Error
      (Error.Aborted (Printf.sprintf "deadlock: page %d held by txn %d" page owner))
  | exception Column.Persist.Dec.Corrupt msg -> Error (Error.Corrupt msg)
  | exception Failure msg -> Error (Error.Corrupt msg)
  | exception Sys_error msg -> Error (Error.Io msg)

(* ----------------------------------------------------------- query cache -- *)

type cache_config = { entries : int; bytes : int; plans : int }

let cache_config ?(entries = 256) ?(bytes = 16 * 1024 * 1024) ?(plans = 128) () =
  { entries; bytes; plans }

let default_cache = cache_config ()

(* Approximate resident bytes of a result list, for the cache's byte bound:
   boxed list cells + per-item payload (attribute strings dominate). *)
let result_size items =
  List.fold_left
    (fun acc it ->
      acc
      + match it with
        | E.Node _ -> 32
        | E.Attribute { value; _ } -> 96 + String.length value)
    16 items

let mk_cache cfg =
  Qcache.create ~max_entries:cfg.entries ~max_bytes:cfg.bytes
    ~max_plans:cfg.plans ~size:result_size ()

(* [XQDB_CACHE] overrides the per-store choice process-wide: [force] turns
   caching on (default config) for stores created without one — the CI test
   matrix uses this to run every suite cache-on — and [off] disables it. *)
let resolve_cache cache =
  let env =
    match Sys.getenv_opt "XQDB_CACHE" with
    | None -> `Default
    | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "force" | "on" | "1" -> `Force
      | "off" | "0" -> `Off
      | _ -> `Default)
  in
  match env, cache with
  | `Off, _ -> None
  | `Force, None -> Some (mk_cache default_cache)
  | (`Force | `Default), Some cfg -> Some (mk_cache cfg)
  | `Default, None -> None

(* ------------------------------------------------------------- lifecycle -- *)

let empty ?wal_path ?cache () =
  let wal_handle = Option.map Wal.open_log wal_path in
  { lane = Txn.shared ?wal:wal_handle ();
    wal_handle;
    cache = resolve_cache cache;
    docs = [];
    cat_mu = Mutex.create ();
    next_doc_id = 0 }

let list_docs t =
  Mutex.lock t.cat_mu;
  let names = List.map (fun d -> d.name) t.docs in
  Mutex.unlock t.cat_mu;
  List.sort compare names

let find_doc t name =
  Mutex.lock t.cat_mu;
  let d = List.find_opt (fun d -> d.name = name) t.docs in
  Mutex.unlock t.cat_mu;
  match d with Some d -> d | None -> raise (Failed (no_such_doc name))

let add_doc ?page_bits ?fill ?schema t name dom =
  let base = Schema_up.of_dom ?page_bits ?fill dom in
  Mutex.lock t.cat_mu;
  match List.find_opt (fun d -> d.name = name) t.docs with
  | Some _ ->
    Mutex.unlock t.cat_mu;
    raise (Failed (Error.Catalog ("document already exists: " ^ name)))
  | None ->
    let doc_id = t.next_doc_id in
    t.next_doc_id <- doc_id + 1;
    let entry =
      { name;
        doc_id;
        mgr = Txn.manager ~doc_id ~shared:t.lane base;
        doc_schema = schema }
    in
    t.docs <- t.docs @ [ entry ];
    Mutex.unlock t.cat_mu;
    (* A predecessor of the same name may have left result entries behind;
       the new document's epochs restart at 0, so purge them. *)
    Option.iter (fun c -> Qcache.remove_doc c name) t.cache

let create_doc ?page_bits ?fill ?schema t name dom =
  capture (fun () -> add_doc ?page_bits ?fill ?schema t name dom)

let drop_doc t name =
  if name = default_doc then
    Error (Error.Catalog "cannot drop the default document")
  else begin
    Mutex.lock t.cat_mu;
    let present = List.exists (fun d -> d.name = name) t.docs in
    t.docs <- List.filter (fun d -> d.name <> name) t.docs;
    Mutex.unlock t.cat_mu;
    if present then begin
      (* The id is never reused, so stray WAL records of the dropped
         document are skipped on recovery; the drop itself becomes durable
         at the next checkpoint. Cached results must go now — see
         [add_doc]. *)
      Option.iter (fun c -> Qcache.remove_doc c name) t.cache;
      Ok ()
    end
    else Error (no_such_doc name)
  end

let create ?page_bits ?fill ?wal_path ?schema ?cache dom =
  let t = empty ?wal_path ?cache () in
  add_doc ?page_bits ?fill ?schema t default_doc dom;
  t

let of_xml ?page_bits ?fill ?wal_path ?schema ?cache src =
  create ?page_bits ?fill ?wal_path ?schema ?cache
    (Xml.Xml_parser.parse ~strip_ws:true src)

let create_doc_xml ?page_bits ?fill ?schema t name src =
  capture (fun () ->
      add_doc ?page_bits ?fill ?schema t name
        (Xml.Xml_parser.parse ~strip_ws:true src))

let store ?(doc = default_doc) t = Txn.store (find_doc t doc).mgr

let cache_stats t = Option.map Qcache.stats t.cache

(* Checkpoints lead with this marker and a format version, so a file that
   is not a catalog checkpoint fails fast as corrupt. *)
let catalog_magic = -7390

let checkpoint ?(truncate_wal = false) t path =
  (* Commits are excluded for the duration (Txn.exclusively on the shared
     lane — every document commits through it, so the snapshot is a cut
     that is consistent across the whole catalog at each document's
     recorded LSN), and — when requested — no commit can slip a WAL frame
     in between the checkpoint becoming durable and the log rotation, so
     rotation never loses a commit. Snapshot readers are not blocked.

     The new checkpoint is written to a temp file and renamed into place:
     a crash at ANY point leaves either the old intact checkpoint (plus the
     unrotated WAL) or the new one — never a torn file at [path]. The
     torture harness drives every one of the failpoint windows below. *)
  Txn.exclusively t.lane (fun () ->
      Fault.hit "db.checkpoint.before";
      Mutex.lock t.cat_mu;
      let docs = t.docs and next_doc_id = t.next_doc_id in
      Mutex.unlock t.cat_mu;
      let enc = Column.Persist.Enc.create () in
      Column.Persist.Enc.int enc catalog_magic;
      Column.Persist.Enc.int enc 1 (* format version *);
      Column.Persist.Enc.int enc next_doc_id;
      Column.Persist.Enc.int enc (List.length docs);
      List.iter
        (fun d ->
          Column.Persist.Enc.string enc d.name;
          Column.Persist.Enc.int enc d.doc_id;
          Column.Persist.Enc.int enc (Txn.last_committed d.mgr);
          Schema_up.save (Txn.store d.mgr) enc)
        docs;
      let tmp = path ^ ".tmp" in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Column.Persist.write_frame oc (Column.Persist.Enc.contents enc));
      (* tmp is complete; the previous checkpoint is still the live one *)
      Fault.hit "db.checkpoint.mid";
      Sys.rename tmp path;
      Column.Persist.fsync_dir (Filename.dirname path);
      (* new checkpoint live, WAL not yet rotated: replay must skip frames
         at or below the checkpoint LSN (Txn.recover_docs' [~after]) *)
      Fault.hit "db.checkpoint.after_rename";
      if truncate_wal then Option.iter Wal.rotate t.wal_handle;
      Fault.hit "db.checkpoint.after")

let open_recovered ?wal_path ?schema ?cache ~checkpoint () =
  capture @@ fun () ->
  let ic = open_in_bin checkpoint in
  let payload =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match Column.Persist.read_frame ic with
        | Some p -> p
        | None -> failwith ("corrupt checkpoint: " ^ checkpoint))
  in
  let dec = Column.Persist.Dec.of_string payload in
  let corrupt fmt =
    Printf.ksprintf (fun m -> raise (Column.Persist.Dec.Corrupt m)) fmt
  in
  let marker = Column.Persist.Dec.int dec in
  if marker <> catalog_magic then corrupt "bad catalog marker %d" marker;
  let version = Column.Persist.Dec.int dec in
  if version <> 1 then corrupt "unsupported catalog version %d" version;
  let next_doc_id = Column.Persist.Dec.int dec in
  let ndocs = Column.Persist.Dec.int dec in
  if ndocs < 0 then corrupt "negative document count";
  (* (name, doc_id, checkpoint LSN, plane) in catalog order *)
  let loaded =
    List.init ndocs (fun _ ->
        let name = Column.Persist.Dec.string dec in
        let doc_id = Column.Persist.Dec.int dec in
        let lsn = Column.Persist.Dec.int dec in
        (name, doc_id, lsn, Schema_up.load dec))
  in
  let wal_path = Option.value ~default:(checkpoint ^ ".wal") wal_path in
  (* One pass over the mixed log: each record redoes onto its document's
     plane, skipping frames at or below that document's checkpoint LSN. *)
  let progress =
    Txn.recover_docs ~wal_path
      ~store_of:(fun id ->
        List.find_map
          (fun (_, doc_id, _, base) ->
            if doc_id = id then Some base else None)
          loaded)
      ~after:(fun id ->
        match List.find_opt (fun (_, doc_id, _, _) -> doc_id = id) loaded with
        | Some (_, _, lsn, _) -> lsn
        | None -> max_int)
  in
  let wal_handle = Some (Wal.open_log wal_path) in
  let lane = Txn.shared ?wal:wal_handle () in
  let docs =
    List.map
      (fun (name, doc_id, lsn, base) ->
        let last =
          match Hashtbl.find_opt progress doc_id with
          | Some (_, last) -> max lsn last
          | None -> lsn
        in
        { name;
          doc_id;
          mgr = Txn.manager ~next_txn:(last + 1) ~doc_id ~shared:lane base;
          doc_schema = (if name = default_doc then schema else None) })
      loaded
  in
  let max_id =
    List.fold_left (fun acc (_, id, _, _) -> max acc (id + 1)) next_doc_id loaded
  in
  { lane;
    wal_handle;
    cache = resolve_cache cache;
    docs;
    cat_mu = Mutex.create ();
    next_doc_id = max_id }

let close t = Option.iter Wal.close t.wal_handle

let read ?(doc = default_doc) t f = Txn.read (find_doc t doc).mgr f

(* -------------------------------------------------------------- sessions -- *)

module Session = struct
  (* [par] is only ever set on read sessions: parallel workers read the
     session's view from other domains, which is safe for pinned snapshots
     (immutable after capture) but not for staged writable views.

     [cache] likewise: only a read session carries the result cache, paired
     with the epoch of the session's OWN pinned descriptor
     (View.snapshot_version), never the manager's last-commit counter — a
     commit finishing between pin and query must not retag this snapshot's
     results. Write sessions bypass the cache entirely: their staged view is
     not a committed epoch. *)
  type t = {
    v : View.t;
    doc : string; (* cache keys carry the document name — epochs are per-doc *)
    writable : bool;
    par : Par.t option;
    cache : (cache_t * int) option;
  }

  let view s = s.v

  let writable s = s.writable

  let cached s = s.cache <> None

  (* The one read pipeline: a "db.query" span around "xpath.parse" and
     "engine.eval". On a cached session the pair runs inside the result
     tier's single-flight (parsing through the plan tier), so a hit has
     neither child. Returns the finished "db.query" span with the items. *)
  let eval ?prof s src =
    let compute () =
      let path =
        Obs.Span.with_ "xpath.parse" (fun () ->
            match s.cache with
            | None -> Xpath.Xpath_parser.parse src
            | Some (c, _) -> Qcache.plan c src Xpath.Xpath_parser.parse)
      in
      Obs.Span.with_ "engine.eval" (fun () ->
          E.eval_items s.v ?par:s.par ?prof path)
    in
    Obs.Span.timed "db.query" (fun () ->
        match s.cache with
        | None -> compute ()
        | Some (c, epoch) ->
          Qcache.with_result ~doc:s.doc c ~query:src ~epoch compute)

  (* [eval] with a step collector, folded into a [Profile.t] from the span
     tree: parse time is the "xpath.parse" child, evaluation (or, on a hit,
     the cache probe) the rest. The slow-query log is fed unconditionally —
     [note] self-gates on its threshold. *)
  let profiled s src =
    let prof = Profile.collector () in
    let items, span = eval ~prof s src in
    let parse_s =
      match
        List.find_opt (fun (c : Obs.Span.t) -> c.name = "xpath.parse")
          span.children
      with
      | Some c -> c.dur
      | None -> 0.
    in
    let p =
      { Profile.query = src;
        started_at = span.start;
        parse_s;
        eval_s = span.dur -. parse_s;
        total_s = span.dur;
        items = List.length items;
        domains = (match s.par with Some p -> Par.domains p | None -> 1);
        cache =
          Option.map
            (fun _ -> if span.children = [] then Profile.Hit else Profile.Miss)
            s.cache;
        steps = Profile.steps prof;
        trace = Some span }
    in
    Profile.Slowlog.note p;
    (items, p)

  (* with the slow-query log armed, every query runs profiled so crossing
     the threshold captures a full profile, not just a duration *)
  let items s src =
    match Profile.Slowlog.threshold () with
    | None -> fst (eval s src)
    | Some _ -> fst (profiled s src)

  let query s src = capture (fun () -> items s src)

  let query_profiled s src = capture (fun () -> profiled s src)

  let count s src = capture (fun () -> List.length (items s src))

  let item_string s item = E.item_string s.v item

  let strings s src = capture (fun () -> List.map (item_string s) (items s src))

  let serialize ?indent s = Ser.to_string ?indent s.v

  let serialize_item s = function
    | E.Node pre -> Ser.subtree_to_string s.v pre
    | E.Attribute { qn; value; _ } ->
      Printf.sprintf "%s=\"%s\"" (Xml.Qname.to_string qn) value

  let update s src =
    if not s.writable then
      invalid_arg "Db.Session.update: read session (use Db.write_txn)";
    capture (fun () -> Xupdate.apply s.v (Xupdate.parse src))
end

let read_txn ?par ?(doc = default_doc) t f =
  capture (fun () ->
      read ~doc t (fun v ->
          let cache =
            match t.cache, View.snapshot_version v with
            | Some c, Some version -> Some (c, Version.epoch version)
            | _ -> None
          in
          f { Session.v; doc; writable = false; par; cache }))

let write_session doc v =
  { Session.v; doc; writable = true; par = None; cache = None }

let validator entry = Option.map Validate.checker entry.doc_schema

let with_write ?(doc = default_doc) t f =
  let entry = find_doc t doc in
  Txn.with_write entry.mgr ?validate:(validator entry) f

let write_txn ?(doc = default_doc) t f =
  capture (fun () -> with_write ~doc t (fun v -> f (write_session doc v)))

(* Atomic multi-document write: one transaction per named document, all
   committed as one group — one WAL frame, all-or-nothing on recovery. *)
let write_multi t names f =
  capture (fun () ->
      let entries = List.map (find_doc t) (List.sort_uniq compare names) in
      if entries = [] then invalid_arg "Db.write_multi: no documents named";
      Txn.with_write_group
        (List.map (fun e -> (e.mgr, validator e)) entries)
        (fun views ->
          let sessions =
            List.map2 (fun e v -> (e.name, write_session e.name v)) entries views
          in
          f (fun name ->
              match List.assoc_opt name sessions with
              | Some s -> s
              | None -> raise (Failed (no_such_doc name)))))

(* ------------------------------------------ queries (implicit sessions) -- *)

let query ?par ?doc t src = read_txn ?par ?doc t (fun s -> Session.items s src)

let query_profiled ?par ?doc t src =
  read_txn ?par ?doc t (fun s -> Session.profiled s src)

let query_strings ?par ?doc t src =
  read_txn ?par ?doc t (fun s ->
      List.map (Session.item_string s) (Session.items s src))

let query_count ?par ?doc t src =
  read_txn ?par ?doc t (fun s -> List.length (Session.items s src))

let to_xml ?indent ?doc t = read ?doc t (fun v -> Ser.to_string ?indent v)

(* Inter-document fan-out: independent documents are embarrassingly
   parallel, so the same query runs on each named document as one pool task
   — each task pins its own snapshot and evaluates sequentially. Results
   (or per-document errors) come back in the order the names were given. *)
let query_count_docs ?par ?docs t src =
  let names = match docs with Some ns -> ns | None -> list_docs t in
  let tasks =
    List.map (fun name () -> (name, query_count ~doc:name t src)) names
  in
  match par with
  | Some p when List.length tasks > 1 -> Par.run p tasks
  | _ -> List.map (fun task -> task ()) tasks

(* --------------------------------------------------------------- updates -- *)

let update ?doc t src =
  capture (fun () ->
      Obs.Span.with_ "db.update" (fun () ->
          let cmds =
            Obs.Span.with_ "xupdate.parse" (fun () -> Xupdate.parse src)
          in
          with_write ?doc t (fun v ->
              Obs.Span.with_ "xupdate.apply" (fun () -> Xupdate.apply v cmds))))

(* ----------------------------------------------------------- maintenance -- *)

let vacuum ?fill ?checkpoint_to ?(doc = default_doc) t =
  (match t.wal_handle, checkpoint_to with
  | Some _, None ->
    invalid_arg
      "Db.vacuum: compaction invalidates the WAL; pass ~checkpoint_to"
  | (Some _ | None), _ -> ());
  let entry = find_doc t doc in
  Txn.vacuum ?fill entry.mgr;
  (* Compaction renumbers this document's nodes and advanced its epoch:
     its cached results are dead — drop them now rather than letting them
     age out. Other documents' entries are untouched. *)
  Option.iter (fun c -> Qcache.remove_doc c doc) t.cache;
  Option.iter (fun path -> checkpoint ~truncate_wal:true t path) checkpoint_to
