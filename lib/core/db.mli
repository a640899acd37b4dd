(** The database facade: an ACID XML store on the updateable schema.

    A store is a {e catalog of named documents}: each document owns its own
    pre/size/level plane, pagemap, version chain and schema,
    while the whole catalog shares one commit mutex, one WAL, one query
    cache and (via [?par]) one domain pool. Every entry point takes [?doc]
    (default: {!default_doc}, the document [create] shreds), so
    single-document callers never mention documents at all — see the
    migration table in the README.

    Ties the pieces together: shred documents, query them with XPath,
    update them with XUpdate inside transactions — atomically across
    several documents with {!write_multi} — checkpoint the catalog to disk,
    recover from checkpoint + mixed multi-document WAL.

    Reads are {e snapshot-isolated} (see {!Version}): a query pins the
    newest committed version and evaluates with no lock held, so readers
    never block a committing writer and vice versa.

    {b Sessions} ({!Session}) are the primary query surface: one pinned
    read snapshot or one write transaction, as a handle. The top-level
    [query*]/[update] conveniences each run in an implicit
    single-statement session.

    {b Caching.} A store created with [?cache] carries a two-tier
    {!Qcache}: compiled plans keyed by query text, results keyed by
    (document, query text, snapshot epoch) — epochs are per-document
    commit LSNs, so a commit to one document never invalidates (or
    collides with) another document's cached results. Read sessions
    consult it; write sessions always bypass it. Invalidation is free —
    commits advance the epoch, so stale entries can never match a freshly
    pinned snapshot. The [XQDB_CACHE] environment variable overrides the
    choice process-wide: [force] (or [on]/[1]) enables a default-sized cache
    on stores created without one, [off] (or [0]) disables caching
    entirely. *)

type t

(** {1 Errors} *)

module Error : sig
  type t =
    | Parse of { source : string; msg : string }
        (** XPath / XUpdate / XML syntax error; [source] names the
            language. *)
    | Aborted of string
        (** Transaction rolled back: snapshot conflict (a concurrent commit
            changed a page this transaction wrote — writers take no lock
            and are validated at commit) or schema-validation failure.
            Retrying is usually appropriate. *)
    | Apply of string  (** XUpdate targeted a nonexistent or invalid node. *)
    | Corrupt of string  (** Checkpoint / WAL payload failed to decode. *)
    | Io of string  (** Operating-system error (missing file, …). *)
    | Catalog of string
        (** Unknown document name, or a name that already exists. *)

  val to_string : t -> string
end

exception Failed of Error.t
(** Raised by {!get_exn}, and by the raising entry points ({!store},
    {!read}, {!with_write}, {!vacuum}) when [?doc] names no document. *)

val get_exn : ('a, Error.t) result -> 'a
(** Every fallible entry point returns [('a, Error.t) result]; callers that
    prefer exceptions (scripts, tests) unwrap with [get_exn], which raises
    [Failed e] on [Error e]. Result entry points map [Failed e] back to
    [Error e], so [get_exn] composes inside sessions. *)

(** {1 Lifecycle} *)

type cache_config = {
  entries : int;  (** result-entry bound *)
  bytes : int;  (** approximate result-byte bound *)
  plans : int;  (** compiled-plan bound *)
}

val cache_config :
  ?entries:int -> ?bytes:int -> ?plans:int -> unit -> cache_config
(** Defaults: 256 entries, 16 MiB, 128 plans. *)

val default_cache : cache_config

val default_doc : string
(** ["main"] — the document every entry point's [?doc] defaults to, and the
    one {!create} shreds. *)

val create :
  ?page_bits:int ->
  ?fill:float ->
  ?wal_path:string ->
  ?schema:Validate.t ->
  ?cache:cache_config ->
  Xml.Dom.t ->
  t
(** Shred a document into a fresh catalog as {!default_doc}. When
    [wal_path] is given, every commit appends a WAL frame there. [schema]
    is validated at every commit to this document. [cache] enables the
    epoch-keyed query cache (subject to the [XQDB_CACHE] override, see
    above). *)

val of_xml :
  ?page_bits:int -> ?fill:float -> ?wal_path:string -> ?schema:Validate.t ->
  ?cache:cache_config -> string -> t
(** [create] from XML text (whitespace-only text is stripped, as for
    benchmark documents). *)

val empty : ?wal_path:string -> ?cache:cache_config -> unit -> t
(** A catalog with no documents (even no {!default_doc}) — add them with
    {!create_doc}. Entry points that default to {!default_doc} fail with
    {!Error.Catalog} until a document of that name exists. *)

(** {1 The document catalog} *)

val create_doc :
  ?page_bits:int -> ?fill:float -> ?schema:Validate.t ->
  t -> string -> Xml.Dom.t -> (unit, Error.t) result
(** Shred [dom] as a new named document sharing the catalog's commit lane,
    WAL and cache. [Error.Catalog] if the name is taken. Names are never
    shared with dropped documents' WAL ids, so re-creating a name is safe.
    Catalog membership becomes durable at the next {!checkpoint}. *)

val create_doc_xml :
  ?page_bits:int -> ?fill:float -> ?schema:Validate.t ->
  t -> string -> string -> (unit, Error.t) result
(** {!create_doc} from XML text. *)

val drop_doc : t -> string -> (unit, Error.t) result
(** Remove a document from the catalog and purge its cached results (its
    epochs restart at zero if the name is re-created). [Error.Catalog] for
    the default document or an unknown name. In-flight transactions on the
    dropped document finish undisturbed — the document object simply stops
    being reachable by name; the drop becomes durable at the next
    {!checkpoint} (stray WAL records of dropped documents are skipped on
    recovery). *)

val list_docs : t -> string list
(** Document names, sorted. *)

val checkpoint : ?truncate_wal:bool -> t -> string -> unit
(** Write a checkpoint file — a committed snapshot of the {e whole catalog}
    (every document's plane plus its LSN and id), taken with commits
    excluded on the shared lane so the cut is consistent across documents
    (snapshot readers keep running). With
    [~truncate_wal:true] the WAL is rotated to empty {e atomically} once the
    checkpoint is durable: no commit can intervene between the two, so the
    checkpoint + empty log carry exactly the same information as the old
    checkpoint + full log. Default [false] (the historical behaviour: the
    log grows forever and {!open_recovered} skips already-checkpointed
    frames by LSN). *)

val open_recovered :
  ?wal_path:string -> ?schema:Validate.t -> ?cache:cache_config ->
  checkpoint:string -> unit -> (t, Error.t) result
(** Load a checkpoint, replay the intact prefix of the (possibly mixed
    multi-document) WAL — each record redone onto its own document's plane,
    commit groups all-or-nothing — and continue logging to [wal_path]
    (default: the same path). [Error.Corrupt] for a file that is not a
    catalog checkpoint. [schema] re-attaches to the default document
    (schemas are not persisted). Returns the recovered store. *)

val store : ?doc:string -> t -> Schema_up.t
(** The document's plane. *)

val close : t -> unit
(** Close the WAL channel (if any). *)

val cache_stats : t -> Qcache.stats option
(** Hit/miss/eviction/byte counters of this store's query cache ([None]
    when caching is disabled). *)

(** {1 Sessions}

    A session is one transaction — a pinned read snapshot or one write
    transaction — exposed as a handle with query/count/serialize (and, for
    write sessions, update) operations, so multi-statement work runs in a
    single consistent view without reaching through {!View.t} internals. *)

module E : module type of Engine.Make (View)

module Session : sig
  type t

  val query : t -> string -> (E.item list, Error.t) result
  (** Evaluate an XPath inside the session's transaction. On a cached read
      session, the result cache is consulted first (keyed by the pinned
      snapshot's epoch) and misses are stored; concurrent readers of the
      same (query, epoch) compute once. *)

  val query_profiled : t -> string -> (E.item list * Profile.t, Error.t) result
  (** Like {!query}, but also collect a per-step profile (plan kind,
      partitions, cardinalities, timings, span trace, cache hit/miss). See
      {!Db.query_profiled}. *)

  val count : t -> string -> (int, Error.t) result

  val strings : t -> string -> (string list, Error.t) result
  (** String values of the result items. *)

  val item_string : t -> E.item -> string

  val serialize : ?indent:bool -> t -> string
  (** Serialise the whole document as seen by this session. *)

  val serialize_item : t -> E.item -> string
  (** One result item as the CLI and the server print it: a node as its
      serialised subtree, an attribute as [name="value"]. *)

  val render : t -> string -> (string, Error.t) result
  (** The body of a server [QUERY] response: the result count, then one
      {!serialize_item} line per item. On a cached read session the body
      is cached with the result: a miss renders once and stores both, a hit
      returns the stored body without evaluating or rendering, and a hit on
      an entry that {!query}, {!count} or a profiled query filled renders
      once and upgrades the entry. The body's length is charged to the
      cache's byte bound. Each body actually serialized counts in the
      [db.renders] instrument. *)

  val update : t -> string -> (int, Error.t) result
  (** Apply an XUpdate document inside this {e write} session; returns the
      number of affected targets. [Invalid_argument] (raised, not
      captured) on a read session. *)

  val writable : t -> bool

  val cached : t -> bool
  (** Whether this session consults the result cache (read session on a
      cache-enabled store). *)

  val view : t -> View.t
  (** Escape hatch to the underlying view (e.g. for {!Update} /
      {!Staircase} interop). *)
end

val read_txn :
  ?par:Par.t -> ?doc:string -> t -> (Session.t -> 'a) -> ('a, Error.t) result
(** Run [f] in one read session: a pinned snapshot; every [Session.query]
    inside sees the same committed state, and no lock is held while [f]
    runs.

    With [?par], queries in the session are evaluated in parallel on the
    pool (see {!Engine}): workers read the {e caller's} pinned snapshot from
    other domains, which is safe because version descriptors are immutable
    after capture and the pin is held for the whole of [f] (parallel batches
    always complete inside [f]). Write sessions never parallelise.

    [?doc] names the document to pin (default {!default_doc}); snapshots
    are per-document. *)

val write_txn : ?doc:string -> t -> (Session.t -> 'a) -> ('a, Error.t) result
(** Run [f] in one write session; commits when [f] returns, aborts on
    exception. Write sessions bypass the result cache entirely — their
    own staged state is not a committed epoch. *)

val write_multi :
  t -> string list -> ((string -> Session.t) -> 'a) -> ('a, Error.t) result
(** Run one write session spanning several documents {e atomically}: [f]
    receives a lookup returning the write session of each named document
    (raises {!Failed} for names outside the list), and when [f]
    returns, all the per-document transactions commit as one group — one
    WAL frame, so recovery replays the whole group or none of it. A
    validation failure, conflict or exception aborts every member.
    Duplicate names are collapsed; the list must be non-empty
    ([Invalid_argument]). *)

(** {1 Queries (implicit read session)} *)

val query :
  ?par:Par.t -> ?doc:string -> t -> string -> (E.item list, Error.t) result
(** Evaluate an XPath against a pinned snapshot (no lock held) — an
    implicit single-statement {!read_txn}. With [?par], axis steps run
    domain-parallel against the snapshot (same results). While the
    slow-query log is armed ({!Profile.Slowlog.configure}), queries run
    profiled so a threshold crossing captures a full profile. *)

val query_profiled :
  ?par:Par.t -> ?doc:string -> t -> string ->
  (E.item list * Profile.t, Error.t) result
(** Evaluate like {!query} and return a {!Profile.t} alongside the result:
    one record per axis step (chosen plan, partitions, context size, slots
    scanned, items produced, duration) plus the query's span trace and —
    on cached stores — whether the result came from the cache. Render with
    {!Profile.render_explain} / [render_json] / [render_chrome]. The
    profile is also offered to {!Profile.Slowlog}. Profiling only costs the
    per-step accounting; use {!query} for the zero-overhead path. *)

val query_strings :
  ?par:Par.t -> ?doc:string -> t -> string -> (string list, Error.t) result

val query_count :
  ?par:Par.t -> ?doc:string -> t -> string -> (int, Error.t) result

val to_xml : ?indent:bool -> ?doc:string -> t -> string
(** Serialise one document (default {!default_doc}). *)

val read : ?doc:string -> t -> (View.t -> 'a) -> 'a
(** Run read-only logic against a pinned snapshot {!View.t} — the raw
    primitive {!read_txn} is built on. Prefer sessions; use this when you
    need the view itself (e.g. {!Staircase} / {!Update} interop). *)

(** {1 Inter-document fan-out}

    Independent documents are embarrassingly parallel: the same query
    evaluated across N documents runs as N pool tasks, each pinning its own
    snapshot and evaluating sequentially. *)

val query_count_docs :
  ?par:Par.t -> ?docs:string list -> t -> string ->
  (string * (int, Error.t) result) list
(** Evaluate one XPath on each named document ([docs] defaults to the whole
    catalog), one {!Par} task per document when [par] is given. Results
    come back in input order, each tagged with its document name; a failure
    on one document does not disturb the others. *)

(** {1 Updates (implicit write session)} *)

val update : ?doc:string -> t -> string -> (int, Error.t) result
(** Parse and apply an XUpdate document in one write transaction; returns
    the number of affected targets. *)

val with_write : ?doc:string -> t -> (View.t -> 'a) -> 'a
(** Run arbitrary update logic (via {!Update} / {!Xupdate}) against the raw
    staged {!View.t} in one write transaction — the primitive
    {!write_txn} is built on. *)

(** {1 Maintenance} *)

val vacuum : ?fill:float -> ?checkpoint_to:string -> ?doc:string -> t -> unit
(** Compact one document (default {!default_doc}): re-pack live tuples at
    the [fill] factor (default 0.8), restore the identity pageOffset, drop
    attribute tombstones. Node handles stay valid. Waits for every pinned
    snapshot to unpin (do not call from inside {!read}/{!read_txn}).
    Compaction physically relocates tuples, which invalidates WAL replay
    positions, so when a WAL is active a [checkpoint_to] path is required —
    the checkpoint is written immediately after compaction and the WAL is
    truncated (raises [Invalid_argument] otherwise). Advances the document's
    version epoch and purges its cached results (other documents' entries
    survive): compaction renumbers nodes, so pre-based cached results must
    not outlive it. *)
