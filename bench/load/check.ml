(* Correctness checks: expected answers from an embedded reference store
   with the cache off, and the durability check after a crash. *)

module Db = Core.Db
module P = Server.Protocol
module Ser = Core.Node_serialize.Make (Core.View)

(* What one workload run hands back to [Main], which reports it. *)
type outcome = {
  e2e : (string * float) list;  (** end-to-end metrics, untraced *)
  layers : (string * float) list;  (** per-layer metrics of this workload *)
  attempted : int;
  failed : int;  (** final ERR, I/O errors, wrong answers, lost writes *)
  problems : string list;  (** what made the run incorrect, if anything *)
  notes : string list;  (** sample counts and the like, for the reader *)
}

(* One timed operation: the stretch of the run between two probes of the
   host it belongs to (see {!Host}), its kind, and its latency [s]. *)
type sample = { slice : int; kind : int; lat : float }

let ms l = Array.of_list (List.map (fun s -> 1000. *. s.lat) l)

(* Each sample's latency times the scale factor of its slice. *)
let scaled factors samples =
  List.map (fun s -> { s with lat = s.lat *. factors.(s.slice) }) samples

(* The median of timed results, each scaled by its factor. *)
let scaled_median timed = Stats.median (Array.map (fun (t, k) -> t *. k) timed)

(* The reported metrics as they read unscaled, for the reader. *)
let unscaled l =
  "unscaled: " ^ String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s %.4g" n v) l)

(* The geometric mean over kinds of each kind's median. *)
let geomean samples =
  let kinds = List.sort_uniq compare (List.map (fun s -> s.kind) samples) in
  Stats.geomean
    (List.map
       (fun k -> Stats.median (ms (List.filter (fun s -> s.kind = k) samples)))
       kinds)

(* The read tail: the median, over [groups] equal stretches of consecutive
   slices, of each stretch's [Stats.tail]. A tail is made of few samples,
   and a disturbance of the host shorter than a second can supply most of
   them; the median keeps one such stretch from setting the tail. Returns
   the tail and the percentile of the first stretch's. *)
let grouped_tail ~groups reads =
  let slices = 1 + List.fold_left (fun a s -> max a s.slice) 0 reads in
  let tails =
    List.filter_map
      (fun g ->
        match List.filter (fun s -> s.slice * groups / slices = g) reads with
        | [] -> None
        | l -> Some (Stats.tail (ms l)))
      (List.init groups Fun.id)
  in
  match tails with
  | [] -> (Float.nan, 0.)
  | (_, p) :: _ -> (Stats.median (Array.of_list (List.map fst tails)), p)

(* The latency metrics every workload reports, in ms, over the whole run,
   the read tail over [tail_groups] stretches of it. The write tail is
   printed only: with a few hundred writes it lands at p96, right where the
   1 s lock-timeout retries of serve-mixed begin, and jumps between the two
   regimes from run to run. *)
let latencies ~tail_groups ~reads ~writes =
  let r99, rp = grouped_tail ~groups:tail_groups reads and w99, wp = Stats.tail (ms writes) in
  ( [ ("read_p50_ms", Stats.median (ms reads));
      ("read_p99_ms", r99);
      ("write_p50_ms", Stats.median (ms writes));
      ("geomean_ms", geomean reads) ],
    [ Printf.sprintf "reads: n=%d, tail of the whole run %.4g ms, read_p99_ms is p%.1f%s"
        (List.length reads)
        (fst (Stats.tail (ms reads)))
        rp
        (if tail_groups > 1 then Printf.sprintf " of %d stretches" tail_groups else "");
      Printf.sprintf "writes: n=%d, p%.1f = %.4g ms" (List.length writes) wp w99 ] )

let get = function Ok x -> x | Error e -> failwith (Db.Error.to_string e)

(* The payload [xqdb serve] answers a read with: the count, then one
   serialized item per line. *)
let render v items =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int (List.length items));
  List.iter
    (fun item ->
      Buffer.add_char b '\n';
      match item with
      | Db.E.Node pre -> Buffer.add_string b (Ser.subtree_to_string v pre)
      | Db.E.Attribute { qn; value; _ } ->
        Buffer.add_string b
          (Printf.sprintf "%s=\"%s\"" (Xml.Qname.to_string qn) value))
    items;
  Buffer.contents b

let payload ?doc db = function
  | P.Query x ->
    get
      (Result.join
         (Db.read_txn ?doc db (fun s ->
              Result.map (render (Db.Session.view s)) (Db.Session.query s x))))
  | P.Count x ->
    get
      (Result.join
         (Db.read_txn ?doc db (fun s ->
              Result.map string_of_int (Db.Session.count s x))))
  | r -> invalid_arg ("Check.payload: " ^ P.verb_name r)

let reference file = Db.of_xml (Inputs.read_file file)

let count db x = get (Db.query_count db x)

(* Every auction a client touched must hold its initial bidders plus the
   acknowledged inserts minus the acknowledged removes; the total over all
   auctions catches a write that landed anywhere else. *)
let ledger ~reference clients db =
  let net = Hashtbl.create 64 in
  List.iter
    (fun c ->
      Hashtbl.iter
        (fun a d ->
          Hashtbl.replace net a (d + Option.value ~default:0 (Hashtbl.find_opt net a)))
        c.Inputs.net)
    clients;
  let all = "/site/open_auctions/open_auction/bidder" in
  let total = Hashtbl.fold (fun _ d acc -> acc + d) net 0 in
  let wrong =
    Hashtbl.fold
      (fun a d acc ->
        let x = Inputs.bidders_of a in
        let want = count reference x + d and got = count db x in
        if want = got then acc
        else Printf.sprintf "%s: %d bidders, expected %d" a got want :: acc)
      net []
  in
  let want = count reference all + total and got = count db all in
  if want = got then wrong
  else Printf.sprintf "%d bidders in all, expected %d" got want :: wrong

(* Recovery is timed on the checkpoint plus the first [recovery_frames]
   commit frames of the WAL, so [recover_s] does not depend on how many
   writes a run happened to complete. *)
let recovery_frames = 60

(* [recover_s] is the median of this many timed recoveries. *)
let recoveries = 7

(* Copy the crashed store — its checkpoint and at most [frames] WAL frames
   — into [dir]. Recovery only reads the copy, so one copy serves several
   recoveries. *)
let copy_store ~dir ~ck ~wal ~frames =
  let ck' = Filename.concat dir "recover.ck" and wal' = Filename.concat dir "recover.wal" in
  Inputs.write_file ck' (Inputs.read_file ck);
  let ic = open_in_bin wal and oc = open_out_bin wal' in
  Fun.protect
    ~finally:(fun () ->
      close_in ic;
      close_out oc)
    (fun () ->
      let rec copy k =
        if k < frames then
          match Column.Persist.read_frame ic with
          | Some p ->
            Column.Persist.write_frame oc p;
            copy (k + 1)
          | None -> ()
      in
      copy 0);
  (ck', wal')

(* Open a copy with [Db.open_recovered]; returns what [f] finds wrong with
   the store, which it inspects before it is closed. *)
let reopen (ck, wal) f =
  match Db.open_recovered ~wal_path:wal ~checkpoint:ck () with
  | Error e -> [ "recovery: " ^ Db.Error.to_string e ]
  | Ok db -> Fun.protect ~finally:(fun () -> Db.close db) (fun () -> f db)

(* [xqdb recover -q] on a copy, on CPU [cpu] when it is given: the seconds
   from its start to its exit, which include the integrity check of every
   document. *)
let recover_cli ~xqdb ~cpu ~log (ck, wal) =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = Proc.now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Proc.create_process ?cpu xqdb
          [| xqdb; "recover"; ck; "--wal"; wal; "-q" |]
          Unix.stdin fd fd)
  in
  let _, status = Unix.waitpid [] pid in
  let t = Proc.now () -. t0 in
  if status <> Unix.WEXITED 0 then failwith ("xqdb recover failed, see " ^ log);
  t

(* The durability check on the whole WAL — integrity of every document and
   [verify]'s ledger — and, when [timed], [recover_s]: the median of
   [recoveries] timed [xqdb recover] runs on the servers' CPU, scaled, and
   the same unscaled. *)
let recover ~host ~xqdb ~cpu ~timed ~dir ~ck ~wal ~docs ~verify =
  let problems =
    reopen (copy_store ~dir ~ck ~wal ~frames:max_int) (fun db ->
        List.filter_map
          (fun doc ->
            match Core.Schema_up.check_integrity (Db.store ~doc db) with
            | Ok () -> None
            | Error m -> Some (doc ^ " integrity: " ^ m))
          docs
        @ verify db)
  in
  let times =
    if not timed then [||]
    else
      let copy = copy_store ~dir ~ck ~wal ~frames:recovery_frames in
      let log = Filename.concat dir "recover.log" in
      Host.each host recoveries (fun _ -> recover_cli ~xqdb ~cpu ~log copy)
  in
  ((scaled_median times, Stats.median (Array.map fst times)), problems)
