(** String dictionaries with stable integer codes.

    Used for the [qn] table (qualified names) and the [prop] table (unique
    attribute values) of the storage schema: every distinct string gets a
    dense id [0,1,2,...]; the id never changes once assigned, matching the
    paper's use of void-keyed side tables that positional joins navigate. *)

type t

val create : ?capacity:int -> unit -> t

val intern : t -> string -> int
(** Id of the string, inserting it if new. *)

val find_opt : t -> string -> int option
(** Id of the string if already interned. *)

val to_string : t -> int -> string
(** Inverse mapping. Raises [Invalid_argument] on an unknown id. *)

val force : t -> int -> string -> unit
(** [force d id s] makes [s] interned at exactly [id] (extending the table
    with placeholders if needed) — idempotent, used by WAL recovery to replay
    dictionary appends deterministically. Raises [Invalid_argument] if [id]
    already holds a different string. *)

val cardinal : t -> int
(** Number of distinct interned strings. *)

val iteri : (int -> string -> unit) -> t -> unit
(** Iterate in id order. *)
