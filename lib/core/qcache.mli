(** Two-tier query cache keyed by the MVCC commit epoch.

    Tier 1 — {e plan cache}: query text -> parsed {!Xpath.Xpath_ast.path}.
    Plans depend only on the text, so they are reused across every version
    of the store.

    Tier 2 — {e result cache}: (document, query text, version epoch) ->
    evaluated result. The epoch is the commit sequence number a pinned
    {!Version.t} descriptor carries ({!Version.epoch}), so invalidation is
    free: a cached result is valid for a reader iff its epoch equals the
    epoch of the snapshot the reader pinned. Committed updates install a
    new descriptor with a higher epoch before the commit mutex is released
    (see the [version.epoch_bump] failpoint), so a stale entry can never
    match a freshly pinned snapshot — old entries simply stop being looked
    up and age out of the LRU. Vacuum also advances the epoch, which
    invalidates results that depend on physical node ids.

    Epochs are {e per document} (each document of a catalog has its own
    version chain), so the key carries the document name: a commit to
    document A advances only A's epoch and can never invalidate — or,
    through a counter collision, corrupt — document B's cached results.
    Dropping a document must purge its entries explicitly
    ({!remove_doc}); a successor document of the same name restarts the
    epoch counter from zero.

    Both tiers are bounded LRU; the result tier additionally by an
    approximate byte budget (caller-supplied [size] function). Lookups that
    miss are {e single-flighted}: concurrent readers of the same
    (query, epoch) block while the first computes, then share its value.

    The cache is domain-safe (one internal mutex; computation runs outside
    it) and process-global instruments [qcache.hits], [qcache.misses],
    [qcache.plan_hits], [qcache.plan_misses], [qcache.evictions],
    [qcache.singleflight_waits], [qcache.bytes], [qcache.entries] track
    activity across every cache in the process. *)

type 'v t
(** A cache holding ['v] results (and compiled plans). *)

type stats = {
  hits : int;  (** result-tier hits, including single-flight shares *)
  misses : int;  (** result-tier misses (the thunk actually ran) *)
  plan_hits : int;
  plan_misses : int;
  evictions : int;  (** result entries evicted by either bound *)
  singleflight_waits : int;  (** readers that blocked on an in-flight compute *)
  entries : int;  (** current result entries *)
  bytes : int;  (** current approximate result bytes *)
  max_entries : int;
  max_bytes : int;
  max_plans : int;
}

val create :
  ?max_entries:int ->
  ?max_bytes:int ->
  ?max_plans:int ->
  size:('v -> int) ->
  unit ->
  'v t
(** [size] approximates a result's resident bytes (used for the byte
    bound). Defaults: 256 entries, 16 MiB, 128 plans. Bounds must be
    positive ([Invalid_argument] otherwise). A single result larger than
    [max_bytes] is returned but never stored. *)

val plan : _ t -> string -> (string -> Xpath.Xpath_ast.path) -> Xpath.Xpath_ast.path
(** [plan c src parse] returns the cached compiled plan for [src], calling
    [parse src] (and caching the result) on a miss. Parse exceptions
    propagate and cache nothing. *)

val find : ?doc:string -> 'v t -> query:string -> epoch:int -> 'v option
(** Pure probe of the result tier (refreshes LRU recency on hit; no
    single-flight). [doc] defaults to [""] — the sole document of a
    single-plane store. *)

val with_result :
  ?doc:string -> 'v t -> query:string -> epoch:int -> (unit -> 'v) -> 'v
(** [with_result c ~doc ~query ~epoch compute] returns the cached result
    for (doc, query, epoch), running [compute] on a miss. Concurrent
    callers of the same key while [compute] runs block and share its value
    (single-flight); if [compute] raises, the exception propagates to its
    caller, nothing is cached, and one blocked waiter retries the
    compute. *)

val replace :
  ?doc:string -> 'v t -> query:string -> epoch:int -> old:'v -> 'v -> unit
(** [replace c ~doc ~query ~epoch ~old v] upgrades a resident entry in
    place: if the value stored under (doc, query, epoch) is still
    physically [old], it becomes [v], its byte charge becomes [size v] and
    it turns most recent; entries past either bound are then evicted, least
    recent first. Nothing changes when the entry is gone (evicted, purged
    or overwritten) or when [size v] exceeds [max_bytes] — the caller keeps
    [v] but the cache keeps [old]. *)

val remove_doc : _ t -> string -> unit
(** Purge every result entry belonging to one document (plans survive —
    they depend only on query text). Required when a document is dropped:
    a successor of the same name restarts its epoch counter, so stale
    entries could otherwise match fresh snapshots. *)

val clear : _ t -> unit
(** Drop both tiers (counters are kept; [entries]/[bytes] reset). *)

val stats : _ t -> stats
(** This cache's own counters (the [qcache.*] instruments aggregate across
    caches; use these for per-store reporting). *)
