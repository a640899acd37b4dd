(** Growable string arrays — the physical representation of variable-width
    (string) columns. Same contract as {!Varray} but for strings. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val get : t -> int -> string

val set : t -> int -> string -> unit

val push : t -> string -> int
(** Append one string, return its index. *)

val force_set : t -> int -> string -> unit
(** [force_set p i s] sets slot [i], extending the pool with empty strings if
    needed — the idempotent "write at id" primitive WAL recovery uses. *)

val iteri : (int -> string -> unit) -> t -> unit
