(** Dependency-free observability kernel: a process-global registry of named,
    labelled instruments (atomic counters, gauges, log-bucketed latency
    histograms) plus a lightweight nested-span tracer.

    Instruments are created idempotently: asking twice for the same
    [name]+[labels] returns the same instrument, so modules can declare their
    instruments at initialisation time and tests can re-resolve them by name.
    Naming convention: [subsystem.instrument] (e.g. ["txn.commits"],
    ["txn.commit_latency"]); labels qualify one instrument into a small
    family (e.g. ["server.requests"] with [("verb", "QUERY")]).

    All mutation paths are thread- and domain-safe: counters and gauges are
    single atomics, histogram buckets are atomic adds, and the few compound
    updates (histogram sum/min/max) are CAS loops. Reading ({!snapshot}) is
    lock-free and may be slightly torn under concurrent writes — fine for
    monitoring, not for accounting. *)

(** {1 Instruments} *)

type counter

type gauge

type histogram

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
(** Register (or re-resolve) a monotonic counter. Raises [Invalid_argument]
    if the name is already registered as a different instrument kind. *)

val inc : counter -> unit

val add : counter -> int -> unit
(** Add a non-negative amount; negative deltas raise [Invalid_argument]. *)

val value : counter -> int

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge
(** Register (or re-resolve) a settable gauge. *)

val set : gauge -> float -> unit

val gauge_add : gauge -> float -> unit
(** Atomically add a (possibly negative) delta to a gauge — the only safe way
    to maintain a shared up/down quantity (live connections, resident bytes)
    from concurrent threads. A read-modify-[set] sequence is not: two racing
    writers can publish their deltas out of order and park the gauge on a
    stale value forever. *)

val gauge_value : gauge -> float

val histogram :
  ?help:string -> ?labels:(string * string) list -> ?base:float -> ?buckets:int ->
  string -> histogram
(** Register (or re-resolve) a histogram with logarithmic (powers-of-two)
    buckets: bucket [i] counts observations in [(base*2^(i-1), base*2^i]]
    (bucket 0 is [(0, base]], the last bucket is open-ended). Defaults:
    [base = 1e-6] (1µs when observing seconds) and [buckets = 64], covering
    twelve orders of magnitude. [base]/[buckets] are fixed at first
    registration; later calls with different geometry return the original. *)

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its duration in seconds (also on exception).
    Measured with the monotonic clock, so wall-clock steps cannot produce
    negative durations. *)

val now : unit -> float
(** Wall-clock seconds (absolute timestamps, e.g. trace starts). *)

val monotonic : unit -> float
(** Monotonic seconds from an arbitrary origin; the only valid use is
    subtracting two readings to get a duration. *)

(** {1 Snapshots and rendering} *)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
  p50 : float;  (** estimated from buckets, within one power of two *)
  p95 : float;
  p99 : float;
  buckets : (float * int) list;
      (** (inclusive upper bound, cumulative count), non-empty buckets only;
          the open-ended top bucket reports [infinity]. *)
}

type snap_value =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

type snapshot = {
  entries : (string * (string * string) list * string * snap_value) list;
      (** (name, labels, help, value), sorted by name then labels. *)
}

val snapshot : unit -> snapshot

val quantile : hist_snapshot -> float -> float
(** [quantile h q] for arbitrary [q] in [0,1], same estimator as [p50]. *)

val reset : unit -> unit
(** Zero every instrument (registration survives) and drop recorded traces. *)

val render_table : snapshot -> string
(** Human-readable table, one instrument per line; histograms show
    [n/p50/p95/p99/max/sum]. *)

val render_prometheus : snapshot -> string
(** Prometheus text exposition format (names sanitised, histograms as
    cumulative [_bucket{le=...}] series plus [_sum]/[_count]). *)

val render_json : snapshot -> string
(** A JSON array of [{"name", "labels", "type", ...}] objects; histograms
    carry count/sum/min/max/quantiles. *)

val json_escape : string -> string
(** Escape a string for embedding inside JSON double quotes (shared by the
    renderers here and by [Core.Profile]'s). *)

(** {1 Span tracing} *)

module Span : sig
  type attr = Int of int | Str of string

  type t = {
    name : string;
    start : float;  (** wall-clock seconds *)
    dur : float;  (** measured with the monotonic clock *)
    attrs : (string * attr) list;  (** in the order they were set *)
    children : t list;  (** in start order *)
  }

  val with_ : string -> (unit -> 'a) -> 'a
  (** Run the thunk inside a span. Spans nest per thread (each thread keeps
      its own stack); when the outermost span of a thread finishes, the whole
      trace is pushed into a bounded ring of recent traces. Every span also
      observes its duration into the histogram [trace.<name>], so per-phase
      p50/p95/p99 fall out of the ordinary snapshot. *)

  val timed : string -> (unit -> 'a) -> 'a * t
  (** Like {!with_}, but also return the finished span itself — the
      race-free way to get at a query's own trace (the recent-traces ring is
      shared with every other thread). On exception the span is still
      finished and recorded, then the exception is re-raised. *)

  val set_int : string -> int -> unit

  val set_str : string -> string -> unit
  (** Attach an attribute to the innermost open span of the calling thread
      (no-op if none is open). Call only from the thread that opened the
      span. *)

  type ctx
  (** A handle to an open span, capturable on one thread and usable from
      another — how traces propagate across [Par] pool domains. *)

  val context : unit -> ctx
  (** The calling thread's innermost open span (or a "no parent" handle if
      none is open — children then become root traces of their own). *)

  val with_context : ctx -> string -> (unit -> 'a) -> 'a
  (** [with_context ctx name f] runs [f] inside a new span that is attached
      as a child of [ctx]'s span when it finishes, even if the current thread
      or domain differs from the one that opened it. Inside [f], further
      {!with_} calls nest under the new span as usual. If [ctx]'s span
      already finished, the child is recorded as its own root trace rather
      than dropped. *)

  val recent : unit -> t list
  (** Most recent completed root traces, newest first (bounded ring). *)

  val ring_capacity : int
  (** Size of the recent-traces ring. *)

  val render : t -> string
  (** One trace as an indented tree with durations and attributes. *)
end
