(** Growable integer arrays — the physical representation of every fixed-width
    column in the kernel.

    A {!t} behaves like an [int array] that supports amortised O(1) [push] at
    the end, in-place mutation, and bulk moves.  The NULL convention of the
    kernel is the sentinel {!null} ([min_int]); varrays do not interpret it,
    they only store it. *)

type t

val null : int
(** Sentinel used by higher layers to represent SQL NULL in an int column. *)

val create : ?capacity:int -> unit -> t
(** Fresh empty varray. [capacity] pre-allocates (default 16). *)

val make : int -> int -> t
(** [make n x] is a varray of length [n] filled with [x]. *)

val of_array : int array -> t
(** Copy of an array as a varray. *)

val length : t -> int

val get : t -> int -> int
(** [get v i] is element [i]. Bounds-checked; raises [Invalid_argument]. *)

val set : t -> int -> int -> unit

val push : t -> int -> int
(** Append one element, return its index. *)

val push_n : t -> int -> int -> unit
(** [push_n v n x] appends [n] copies of [x]. *)

val pop : t -> int
(** Remove and return the last element. Raises [Invalid_argument] if empty. *)

val truncate : t -> int -> unit
(** [truncate v n] drops elements so that [length v = n]. [n] must not exceed
    the current length. *)

val ensure_length : t -> int -> int -> unit
(** [ensure_length v n x] extends [v] with copies of [x] until
    [length v >= n]. No-op when already long enough. *)

val blit_within : t -> src:int -> dst:int -> len:int -> unit
(** Overlapping-safe move of [len] elements from [src] to [dst]. *)

val fill : t -> pos:int -> len:int -> int -> unit
(** Set [len] elements starting at [pos] to a constant. *)

val copy : t -> t
(** Deep copy. *)

val to_array : t -> int array

val iteri : (int -> int -> unit) -> t -> unit

val fold_left : ('a -> int -> 'a) -> 'a -> t -> 'a

val unsafe_data : t -> int array
(** The backing store, valid for indices [< length t]. Exposed so that hot
    loops (staircase join) can avoid a bounds check per access; the array
    identity is invalidated by any growth operation. *)

val equal : t -> t -> bool
