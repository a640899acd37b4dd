(* Length-prefixed text frames; see protocol.mli and PROTOCOL.md. *)

type request =
  | Ping
  | Query of string
  | Count of string
  | Explain of string
  | Profile of string
  | Update of string
  | Doc of string
  | Ls
  | Create of { name : string; body : string }
  | Drop of string
  | Metrics
  | Cache_stats
  | Quit

type response = Ok of string | Err of { code : string; msg : string }

let verb_name = function
  | Ping -> "PING"
  | Query _ -> "QUERY"
  | Count _ -> "COUNT"
  | Explain _ -> "EXPLAIN"
  | Profile _ -> "PROFILE"
  | Update _ -> "UPDATE"
  | Doc _ -> "DOC"
  | Ls -> "LS"
  | Create _ -> "CREATE"
  | Drop _ -> "DROP"
  | Metrics -> "METRICS"
  | Cache_stats -> "CACHE"
  | Quit -> "QUIT"

let render_request = function
  | Ping -> "PING"
  | Query x -> "QUERY " ^ x
  | Count x -> "COUNT " ^ x
  | Explain x -> "EXPLAIN " ^ x
  | Profile x -> "PROFILE " ^ x
  | Update body -> "UPDATE\n" ^ body
  | Doc name -> "DOC " ^ name
  | Ls -> "LS"
  | Create { name; body } -> "CREATE " ^ name ^ "\n" ^ body
  | Drop name -> "DROP " ^ name
  | Metrics -> "METRICS"
  | Cache_stats -> "CACHE"
  | Quit -> "QUIT"

(* First line (verb + inline argument) vs body. A payload without '\n' is
   all first-line. *)
let split_payload s =
  match String.index_opt s '\n' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let split_verb line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    ( String.sub line 0 i,
      String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let parse_request payload =
  let line, body = split_payload payload in
  let verb, arg = split_verb (String.trim line) in
  let need_arg mk =
    if arg = "" then Error (verb ^ " needs an inline argument") else Result.Ok (mk arg)
  in
  match String.uppercase_ascii verb with
  | "PING" -> Result.Ok Ping
  | "QUERY" -> need_arg (fun a -> Query a)
  | "COUNT" -> need_arg (fun a -> Count a)
  | "EXPLAIN" -> need_arg (fun a -> Explain a)
  | "PROFILE" -> need_arg (fun a -> Profile a)
  | "UPDATE" ->
    if String.trim body = "" then Error "UPDATE needs an XUpdate body"
    else Result.Ok (Update body)
  | "DOC" -> need_arg (fun a -> Doc a)
  | "LS" -> Result.Ok Ls
  | "CREATE" ->
    if arg = "" then Error "CREATE needs a document name"
    else if String.trim body = "" then Error "CREATE needs an XML body"
    else Result.Ok (Create { name = arg; body })
  | "DROP" -> need_arg (fun a -> Drop a)
  | "METRICS" -> Result.Ok Metrics
  | "CACHE" -> Result.Ok Cache_stats
  | "QUIT" -> Result.Ok Quit
  | "" -> Error "empty request"
  | v -> Error ("unknown verb: " ^ v)

(* A response payload as the pieces it is made of, so a frame can copy a
   large body once, straight into its write buffer. *)
let response_parts = function
  | Ok "" -> [ "OK" ]
  | Ok body -> [ "OK\n"; body ]
  | Err { code; msg } -> [ "ERR "; code; "\n"; msg ]

let render_response r = String.concat "" (response_parts r)

let parse_response payload =
  let line, body = split_payload payload in
  match split_verb (String.trim line) with
  | "OK", "" -> Result.Ok (Ok body)
  | "ERR", code when code <> "" -> Result.Ok (Err { code; msg = body })
  | _ -> Error ("bad response status line: " ^ line)

(* ------------------------------------------------------------- transport -- *)

(* 64 MiB needs 8 digits; anything longer is a desynchronized or hostile
   stream, not a plausible frame. *)
let max_header_digits = 10

type read_error =
  | Eof
  | Closed_mid_frame
  | Too_large of { len : int; cap : int }
  | Malformed of string

let read_error_text = function
  | Eof -> "connection closed"
  | Closed_mid_frame -> "connection closed mid-frame"
  | Too_large { len; cap } ->
    Printf.sprintf "declared frame length %d exceeds the %d-byte limit" len cap
  | Malformed msg -> "malformed frame header: " ^ msg

let rec retry_intr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_intr f

let write_all fd buf =
  let n = Bytes.length buf in
  let off = ref 0 in
  while !off < n do
    let w = retry_intr (fun () -> Unix.write fd buf !off (n - !off)) in
    if w = 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
    off := !off + w
  done

(* One frame whose payload is the concatenation of [parts], built in one
   buffer and sent with one write: the header is tiny and coalescing avoids
   a delayed-ACK/Nagle stall between header and payload. Each part is
   copied once. Returns the payload length. *)
let write_parts fd parts =
  let len = List.fold_left (fun n p -> n + String.length p) 0 parts in
  let header = string_of_int len ^ "\n" in
  let buf = Bytes.create (String.length header + len) in
  ignore
    (List.fold_left
       (fun off p ->
         Bytes.blit_string p 0 buf off (String.length p);
         off + String.length p)
       0 (header :: parts));
  write_all fd buf;
  len

let write_frame fd payload = ignore (write_parts fd [ payload ])

let write_response fd r = write_parts fd (response_parts r)

(* Read exactly [n] bytes; [`Eof got] on premature close. A connection
   reset counts as EOF: a peer that aborts (or closes with data still
   unread, which makes its kernel send RST) is a gone peer, not a caller
   bug worth an exception. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    let r =
      try retry_intr (fun () -> Unix.read fd buf !off (n - !off))
      with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
    in
    if r = 0 then eof := true else off := !off + r
  done;
  if !eof then `Eof !off else `Bytes buf

let read_frame ~max_bytes fd =
  (* Header: byte-at-a-time up to '\n'. Frames carry kilobytes of payload
     after a <=10 byte header, so the extra reads are noise. *)
  let digits = Buffer.create 8 in
  let rec header () =
    match read_exact fd 1 with
    | `Eof _ -> if Buffer.length digits = 0 then Error Eof else Error Closed_mid_frame
    | `Bytes b -> (
      match Bytes.get b 0 with
      | '\n' ->
        if Buffer.length digits = 0 then Error (Malformed "empty length")
        else Result.Ok (Buffer.contents digits)
      | '0' .. '9' when Buffer.length digits < max_header_digits ->
        Buffer.add_char digits (Bytes.get b 0);
        header ()
      | '0' .. '9' ->
        Error
          (Malformed
             (Printf.sprintf "length header %s… exceeds %d digits"
                (Buffer.contents digits) max_header_digits))
      | c -> Error (Malformed (Printf.sprintf "unexpected byte %C in length" c)))
  in
  match header () with
  | Error _ as e -> e
  | Result.Ok ds -> (
    match int_of_string_opt ds with
    | None ->
      Error
        (Malformed
           (Printf.sprintf "unparseable length %s (cap %d bytes)" ds max_bytes))
    | Some len when len > max_bytes -> Error (Too_large { len; cap = max_bytes })
    | Some len -> (
      if len = 0 then Result.Ok ""
      else
        match read_exact fd len with
        | `Eof _ -> Error Closed_mid_frame
        (* the buffer is fresh and nothing else holds it *)
        | `Bytes b -> Result.Ok (Bytes.unsafe_to_string b)))

(* ---------------------------------------------------------------- client -- *)

let client_max_response_bytes = 256 * 1024 * 1024

let request fd req =
  write_frame fd (render_request req);
  match read_frame ~max_bytes:client_max_response_bytes fd with
  | Error _ as e -> e
  | Result.Ok payload -> (
    match parse_response payload with
    | Result.Ok r -> Result.Ok r
    | Error msg -> Result.Ok (Err { code = "proto"; msg }))
