open Column

type record = {
  doc : int;
  txn : int;
  cells : (int * int * int) list;
  pages : int array array list;
  page_order : int array;
  node_pos : (int * int) list;
  freed_nodes : int list;
  size_deltas : (int * int) list;
  attr_adds : (int * int * int) list;
  attr_dels : int list;
  pool : (Values.pool * int * string) list;
  live_delta : int;
}

type t = { path : string; mutable oc : out_channel }

let m_frames = Obs.counter ~help:"commit frames appended (one per commit group)" "wal.frames"

let m_records =
  Obs.counter ~help:"per-document records appended across all frames"
    "wal.records"

let m_bytes = Obs.counter ~help:"bytes appended (frame header included)" "wal.bytes"

let m_fsyncs = Obs.counter ~help:"channel flushes (the durability point)" "wal.fsyncs"

let m_fsync_latency =
  Obs.histogram ~help:"append+flush latency per commit record [s]"
    "wal.fsync_latency"

(* Persist.write_frame prefixes a 24-byte [magic|length|checksum] header. *)
let frame_header_bytes = 24

let open_log path =
  let existed = Sys.file_exists path in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  (* A freshly created log is only durable once its directory entry is —
     without this, a crash right after creation can lose the file itself
     and with it every frame we "durably" appended. *)
  if not existed then Persist.fsync_dir (Filename.dirname path);
  { path; oc }

let pool_tag : Values.pool -> int = function
  | Values.Ptext -> 0
  | Values.Pcomment -> 1
  | Values.Ppi_target -> 2
  | Values.Ppi_data -> 3
  | Values.Dqn -> 4
  | Values.Dprop -> 5

let pool_of_tag = function
  | 0 -> Values.Ptext
  | 1 -> Values.Pcomment
  | 2 -> Values.Ppi_target
  | 3 -> Values.Ppi_data
  | 4 -> Values.Dqn
  | 5 -> Values.Dprop
  | n -> raise (Persist.Dec.Corrupt (Printf.sprintf "bad pool tag %d" n))

let enc_list enc f l =
  Persist.Enc.int enc (List.length l);
  List.iter (f enc) l

let dec_list dec f =
  let n = Persist.Dec.int dec in
  if n < 0 then raise (Persist.Dec.Corrupt "negative list length");
  List.init n (fun _ -> f dec)

let encode_record enc r =
  let open Persist.Enc in
  int enc r.doc;
  int enc r.txn;
  enc_list enc
    (fun enc (pos, col, v) ->
      int enc pos;
      int enc col;
      int enc v)
    r.cells;
  enc_list enc
    (fun enc page -> Array.iter (fun col -> int_array enc col) page)
    r.pages;
  int_array enc r.page_order;
  enc_list enc
    (fun enc (a, b) ->
      int enc a;
      int enc b)
    r.node_pos;
  enc_list enc (fun enc x -> int enc x) r.freed_nodes;
  enc_list enc
    (fun enc (a, b) ->
      int enc a;
      int enc b)
    r.size_deltas;
  enc_list enc
    (fun enc (a, b, c) ->
      int enc a;
      int enc b;
      int enc c)
    r.attr_adds;
  enc_list enc (fun enc x -> int enc x) r.attr_dels;
  enc_list enc
    (fun enc (p, id, s) ->
      int enc (pool_tag p);
      int enc id;
      string enc s)
    r.pool;
  Persist.Enc.int enc r.live_delta

(* A frame carries a {e commit group}: every record of one atomic commit,
   possibly spanning several documents. The frame checksum covers the whole
   group, so a torn tail drops the commit as a unit — cross-document
   atomicity costs nothing beyond the existing single-I/O commit point. *)
let encode_group rs =
  let enc = Persist.Enc.create () in
  enc_list enc encode_record rs;
  Persist.Enc.contents enc

let decode_record dec =
  let open Persist.Dec in
  let doc = int dec in
  let txn = int dec in
  let cells =
    dec_list dec (fun dec ->
        let pos = int dec in
        let col = int dec in
        let v = int dec in
        (pos, col, v))
  in
  let pages =
    dec_list dec (fun dec -> Array.init 5 (fun _ -> int_array dec))
  in
  let page_order = int_array dec in
  let node_pos =
    dec_list dec (fun dec ->
        let a = int dec in
        let b = int dec in
        (a, b))
  in
  let freed_nodes = dec_list dec int in
  let size_deltas =
    dec_list dec (fun dec ->
        let a = int dec in
        let b = int dec in
        (a, b))
  in
  let attr_adds =
    dec_list dec (fun dec ->
        let a = int dec in
        let b = int dec in
        let c = int dec in
        (a, b, c))
  in
  let attr_dels = dec_list dec int in
  let pool =
    dec_list dec (fun dec ->
        let tag = int dec in
        let id = int dec in
        let s = string dec in
        (pool_of_tag tag, id, s))
  in
  let live_delta = int dec in
  { doc; txn; cells; pages; page_order; node_pos; freed_nodes; size_deltas;
    attr_adds; attr_dels; pool; live_delta }

let decode_group payload =
  let dec = Persist.Dec.of_string payload in
  dec_list dec decode_record

let append_group t rs =
  if rs <> [] then begin
    Fault.hit "wal.append.before";
    let payload = encode_group rs in
    Obs.time m_fsync_latency (fun () -> Persist.write_frame t.oc payload);
    Fault.hit "wal.append.after";
    Obs.inc m_frames;
    Obs.add m_records (List.length rs);
    Obs.inc m_fsyncs;
    Obs.add m_bytes (String.length payload + frame_header_bytes)
  end

let close t = close_out t.oc

let m_rotations = Obs.counter ~help:"log truncations after checkpoint" "wal.rotations"

(* Truncate the log in place. Callers must exclude concurrent appends (the
   transaction manager holds its commit mutex) and must already have made
   every logged commit durable elsewhere — i.e. a checkpoint covering the
   whole log has hit disk. *)
let rotate t =
  Fault.hit "wal.rotate.before";
  close_out t.oc;
  t.oc <- open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 t.path;
  (* If the path had been unlinked (or never existed), Open_creat just made
     a new directory entry; fsync the directory so a crash after rotation
     cannot lose the empty log and resurrect pre-rotation frames. *)
  Persist.fsync_dir (Filename.dirname t.path);
  Fault.hit "wal.rotate.after";
  Obs.inc m_rotations

let replay path f =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let count = ref 0 in
        let rec go () =
          match Persist.read_frame ic with
          | None -> ()
          | Some payload -> (
            match decode_group payload with
            | rs ->
              List.iter
                (fun r ->
                  f r;
                  incr count)
                rs;
              go ()
            | exception Persist.Dec.Corrupt _ -> ())
        in
        go ();
        !count)
  end
