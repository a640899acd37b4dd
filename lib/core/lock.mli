(** The page-lock manager (paper §3.2).

    Write transactions acquire {e page} locks incrementally — shared while
    reading during XPath execution, exclusive for pages whose tuples the
    transaction rewrites. Ancestor [size] maintenance deliberately takes
    {e no} page lock: it travels as commutative deltas.

    Figure 8's global lock has no counterpart here. Readers take no lock at
    all: they pin an MVCC version ({!Version}) and evaluate against that
    snapshot. Commits serialise on the commit lane's mutex ({!Txn.shared}),
    and the short apply phase runs inside the store seqlock, so a pinned
    reader retries any read that overlaps it.

    Lock-upgrade (read → write) is supported for the sole reader. Writers
    that cannot make progress within the timeout receive {!Would_deadlock}
    and are expected to abort — a simple timeout scheme standing in for a
    waits-for graph. *)

type t

exception Would_deadlock of { owner : int; page : int }

val create : ?timeout_s:float -> unit -> t
(** [timeout_s] bounds every blocking page-lock acquisition (default 1.0). *)

(** {1 Page locks} *)

val acquire_page : t -> owner:int -> page:int -> write:bool -> unit
(** Blocking; re-entrant (holding suffices); upgrades a held read lock when
    compatible. Raises {!Would_deadlock} on timeout. *)

val holds : t -> owner:int -> page:int -> [ `None | `Read | `Write ]

val release_all : t -> owner:int -> unit
(** Release every page lock held by an owner (end of commit / abort). *)

(** {1 Introspection (tests, benches)} *)

val locked_pages : t -> owner:int -> int list
