(** Wire protocol of the network query server: length-prefixed text frames
    carrying one request or one response each.

    {b Framing.} A frame is a decimal payload length in ASCII, a single
    ['\n'], then exactly that many payload bytes:

    {v
    <len>\n<payload bytes>
    v}

    The length covers the payload only. Both directions use the same
    framing, so a client can always skip a response it does not understand.
    The length header is bounded ({!max_header_digits} digits) and the
    payload is bounded by the receiver's [max_bytes] — a peer announcing a
    larger frame is rejected {e before} any payload is read.

    {b Requests.} The payload's first line is the verb and its inline
    argument; everything after the first ['\n'] is the body (only [UPDATE]
    uses it — the XUpdate document travels there because it is itself
    multi-line XML):

    {v
    PING | QUERY <xpath> | COUNT <xpath> | EXPLAIN <xpath>
    PROFILE <xpath> | UPDATE (body = XUpdate)
    DOC <name> | LS | CREATE <name> (body = XML) | DROP <name>
    METRICS | CACHE | QUIT
    v}

    [DOC] scopes the connection: subsequent query/update verbs address the
    named document until the next [DOC]. A connection that never sends
    [DOC] addresses the server's default document — the pre-catalog
    behaviour, so old clients keep working unchanged.

    {b Responses.} First line ["OK"] or ["ERR <code>"]; the rest is the
    result payload (serialized items, a count, Prometheus text, …) or the
    error message. See PROTOCOL.md for the full frame/verb specification
    and the per-verb payloads. *)

type request =
  | Ping
  | Query of string
  | Count of string
  | Explain of string
  | Profile of string
  | Update of string  (** body: one XUpdate modifications document *)
  | Doc of string  (** scope this connection to the named document *)
  | Ls  (** list the catalog's document names, one per line *)
  | Create of { name : string; body : string }
      (** shred [body] (an XML document) as a new named document *)
  | Drop of string  (** remove a document from the catalog *)
  | Metrics  (** Prometheus text exposition of the whole registry *)
  | Cache_stats
  | Quit

type response =
  | Ok of string
  | Err of { code : string; msg : string }
      (** [code] is one short token (["parse"], ["timeout"], ["busy"],
          ["proto"], ["too-large"], ["catalog"], ["shutdown"], …); [msg] is
          free text. *)

val verb_name : request -> string
(** The wire verb (["QUERY"], ["PING"], …) — also the [verb] label of the
    server's per-request instruments. *)

val render_request : request -> string

val parse_request : string -> (request, string) result
(** Parse a request payload. [Error] carries a human-readable reason (the
    connection stays usable: framing was intact, only the verb was bad). *)

val render_response : response -> string

val parse_response : string -> (response, string) result

(** {1 Frame transport}

    Blocking reads/writes on a connected socket, resilient to partial
    reads/writes and EINTR. *)

val max_header_digits : int
(** Longest accepted length header (without the ['\n']). *)

type read_error =
  | Eof  (** clean EOF on a frame boundary (peer closed or half-closed) *)
  | Closed_mid_frame  (** EOF after a partial header or payload *)
  | Too_large of { len : int; cap : int }
      (** announced length [len] exceeds the receiver's bound [cap]; no
          payload bytes were consumed, but the stream is no longer
          synchronized *)
  | Malformed of string
      (** non-numeric or oversized length header; the message carries the
          offending header text and the violated bound *)

val read_error_text : read_error -> string

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame; raises [Unix.Unix_error] on a dead or (with
    [SO_SNDTIMEO] armed) persistently unwritable peer. *)

val write_response : Unix.file_descr -> response -> int
(** [write_frame fd (render_response r)], but the body is copied once,
    straight into the frame buffer. Returns the payload length. *)

val read_frame : max_bytes:int -> Unix.file_descr -> (string, read_error) result
(** Read one frame. After [Too_large] or [Malformed] the caller must close
    the connection: frame boundaries are lost. *)

(** {1 Client conveniences} *)

val request : Unix.file_descr -> request -> (response, read_error) result
(** Send one request and read one response frame (client side; responses are
    bounded by {!client_max_response_bytes}). *)

val client_max_response_bytes : int
