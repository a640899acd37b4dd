let frame_magic = 0xB0DECA

module Enc = struct
  type t = Buffer.t

  let create () = Buffer.create 256

  (* 8 bytes little-endian, sign-extended to 64 bits. *)
  let int b x = Buffer.add_int64_le b (Int64.of_int x)

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let int_array b a =
    int b (Array.length a);
    Array.iter (int b) a

  let varray b v = int_array b (Varray.to_array v)

  let strpool b p =
    int b (Strpool.length p);
    Strpool.iteri (fun _ s -> string b s) p

  let dict b d =
    int b (Dict.cardinal d);
    Dict.iteri (fun _ s -> string b s) d

  let contents = Buffer.contents
end

module Dec = struct
  type t = { data : string; mutable off : int }

  exception Corrupt of string

  let of_string data = { data; off = 0 }

  let need d n =
    if d.off + n > String.length d.data then
      raise (Corrupt (Printf.sprintf "truncated payload at offset %d" d.off))

  (* The top bit of the 64 is dropped, as in [Int64.to_int]. *)
  let int d =
    need d 8;
    let x = Int64.to_int (String.get_int64_le d.data d.off) in
    d.off <- d.off + 8;
    x

  let len_checked d what n =
    if n < 0 || n > String.length d.data - d.off then
      raise (Corrupt (Printf.sprintf "bad %s length %d" what n));
    n

  let string d =
    let n = len_checked d "string" (int d) in
    need d n;
    let s = String.sub d.data d.off n in
    d.off <- d.off + n;
    s

  let int_array d =
    let n = int d in
    if n < 0 || n > (String.length d.data - d.off) / 8 then
      raise (Corrupt (Printf.sprintf "bad array length %d" n));
    Array.init n (fun _ -> int d)

  let varray d = Varray.of_array (int_array d)

  let strpool d =
    let n = len_checked d "strpool" (int d) in
    let p = Strpool.create ~capacity:(max n 1) () in
    for _ = 1 to n do
      ignore (Strpool.push p (string d))
    done;
    p

  let dict d =
    let n = len_checked d "dict" (int d) in
    let dict = Dict.create ~capacity:(max n 1) () in
    for _ = 1 to n do
      ignore (Dict.intern dict (string d))
    done;
    dict

  let at_end d = d.off = String.length d.data
end

(* zlib's deferred modulo: reduce once per 5,552 bytes, the longest run
   whose sums cannot pass 2^32 (far inside an OCaml int). *)
let adler32 s =
  let n = String.length s in
  let a = ref 1 and b = ref 0 and i = ref 0 in
  while !i < n do
    let stop = min n (!i + 5552) in
    for j = !i to stop - 1 do
      a := !a + Char.code (String.unsafe_get s j);
      b := !b + !a
    done;
    a := !a mod 65521;
    b := !b mod 65521;
    i := stop
  done;
  (!b lsl 16) lor !a

(* Failpoint: the frame write is where torn-write crashes are injected.
   [Torn_write f] emits the first [f] of the frame's bytes, flushes, and
   kills the process — a crash mid-I/O; [Crash] dies before any byte hits
   the channel (the frame is wholly absent). *)
let fp_write_frame = "persist.write_frame"

let frame_of hdr payload = Enc.contents hdr ^ payload

let write_frame oc payload =
  let hdr = Enc.create () in
  Enc.int hdr frame_magic;
  Enc.int hdr (String.length payload);
  Enc.int hdr (adler32 payload);
  (match Fault.check fp_write_frame with
  | None -> ()
  | Some (Fault.Torn_write f) ->
    let frame = frame_of hdr payload in
    let n = String.length frame in
    let keep = max 0 (min (n - 1) (int_of_float (f *. float_of_int n))) in
    output_string oc (String.sub frame 0 keep);
    flush oc;
    Fault.crash ()
  | Some a -> Fault.act a);
  output_string oc (Enc.contents hdr);
  output_string oc payload;
  flush oc

(* Creating or renaming a file only becomes durable once its *directory*
   entry is fsynced; callers that just created/rotated a log or renamed a
   checkpoint into place use this to close that window. Best-effort: some
   filesystems refuse fsync on directory fds, and a missing path is the
   caller's problem, not ours. *)
let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let really_input_opt ic n =
  let b = Bytes.create n in
  match really_input ic b 0 n with
  | () -> Some (Bytes.to_string b)
  | exception End_of_file -> None

let read_frame ic =
  match really_input_opt ic 24 with
  | None -> None
  | Some hdr -> (
    let d = Dec.of_string hdr in
    match
      let magic = Dec.int d in
      let len = Dec.int d in
      let crc = Dec.int d in
      (magic, len, crc)
    with
    | exception Dec.Corrupt _ -> None
    | magic, len, crc ->
      if magic <> frame_magic || len < 0 then None
      else (
        match really_input_opt ic len with
        | None -> None
        | Some payload -> if adler32 payload = crc then Some payload else None))
