(* Two-tier query cache: plan tier keyed by query text, result tier keyed by
   (query text, snapshot epoch). See qcache.mli for the invalidation
   argument. One mutex guards both tiers; computations run outside it with
   an in-flight ticket providing single-flight deduplication. *)

(* ------------------------------------------------- process-global metrics -- *)

let m_hits = Obs.counter ~help:"result-cache hits (incl. single-flight shares)" "qcache.hits"

let m_misses = Obs.counter ~help:"result-cache misses (computed)" "qcache.misses"

let m_plan_hits = Obs.counter ~help:"plan-cache hits" "qcache.plan_hits"

let m_plan_misses = Obs.counter ~help:"plan-cache misses (parsed)" "qcache.plan_misses"

let m_evictions = Obs.counter ~help:"result entries evicted (count or byte bound)" "qcache.evictions"

let m_sf_waits =
  Obs.counter ~help:"readers that blocked on an in-flight computation"
    "qcache.singleflight_waits"

let m_bytes = Obs.gauge ~help:"approximate resident result bytes (all caches)" "qcache.bytes"

let m_entries = Obs.gauge ~help:"resident result entries (all caches)" "qcache.entries"

(* Gauges aggregate across caches: each cache publishes deltas straight into
   the gauge with the atomic [Obs.gauge_add]. The earlier scheme — fetch-add
   a local atomic, then [Obs.set] the gauge to the new total — let two racing
   publishers land their [set]s out of order and park the gauge on a stale
   value until the next delta (found while auditing instrument updates for
   the server's concurrent sessions). *)
let publish_delta ~bytes ~entries =
  if bytes <> 0 then Obs.gauge_add m_bytes (float_of_int bytes);
  if entries <> 0 then Obs.gauge_add m_entries (float_of_int entries)

(* ------------------------------------------------------------ LRU plumbing -- *)

(* Intrusive doubly-linked list, most-recent at [head]. One list per tier. *)
type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  size : int;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) lru = {
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable bytes : int;
}

let lru_create n = { tbl = Hashtbl.create n; head = None; tail = None; bytes = 0 }

let unlink l n =
  (match n.prev with Some p -> p.next <- n.next | None -> l.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> l.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front l n =
  n.next <- l.head;
  (match l.head with Some h -> h.prev <- Some n | None -> l.tail <- Some n);
  l.head <- Some n

let lru_find l k =
  match Hashtbl.find_opt l.tbl k with
  | None -> None
  | Some n ->
    unlink l n;
    push_front l n;
    Some n.value

(* Returns the size of the entry [k] had before, if any. *)
let lru_add l k v ~size =
  let replaced =
    match Hashtbl.find_opt l.tbl k with
    | Some old ->
      unlink l old;
      l.bytes <- l.bytes - old.size;
      Some old.size
    | None -> None
  in
  let n = { key = k; value = v; size; prev = None; next = None } in
  Hashtbl.replace l.tbl k n;
  push_front l n;
  l.bytes <- l.bytes + size;
  replaced

(* Evict least-recently-used entries until both bounds hold; returns
   (evicted count, bytes freed). *)
let lru_trim l ~max_entries ~max_bytes =
  let evicted = ref 0 and freed = ref 0 in
  while
    (Hashtbl.length l.tbl > max_entries || l.bytes > max_bytes)
    && l.tail <> None
  do
    match l.tail with
    | None -> ()
    | Some n ->
      unlink l n;
      Hashtbl.remove l.tbl n.key;
      l.bytes <- l.bytes - n.size;
      incr evicted;
      freed := !freed + n.size
  done;
  (!evicted, !freed)

let lru_clear l =
  Hashtbl.reset l.tbl;
  l.head <- None;
  l.tail <- None;
  l.bytes <- 0

(* ------------------------------------------------------------------ cache -- *)

type 'v t = {
  mu : Mutex.t;
  cond : Condition.t;  (** single-flight waiters park here *)
  plans : (string, Xpath.Xpath_ast.path) lru;
  (* Result keys carry the document name: epochs are per-document commit
     LSNs, so two documents' counters collide — (doc, query, epoch) keeps
     one document's commits from ever matching (or evicting by collision)
     another's cached results. *)
  results : (string * string * int, 'v) lru;
  inflight : (string * string * int, unit) Hashtbl.t;
  size : 'v -> int;
  max_entries : int;
  max_bytes : int;
  max_plans : int;
  (* per-cache counters (the Obs instruments aggregate across caches) *)
  mutable hits : int;
  mutable misses : int;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable evictions : int;
  mutable sf_waits : int;
}

type stats = {
  hits : int;
  misses : int;
  plan_hits : int;
  plan_misses : int;
  evictions : int;
  singleflight_waits : int;
  entries : int;
  bytes : int;
  max_entries : int;
  max_bytes : int;
  max_plans : int;
}

let create ?(max_entries = 256) ?(max_bytes = 16 * 1024 * 1024) ?(max_plans = 128)
    ~size () =
  if max_entries <= 0 || max_bytes <= 0 || max_plans <= 0 then
    invalid_arg "Qcache.create: bounds must be positive";
  { mu = Mutex.create ();
    cond = Condition.create ();
    plans = lru_create 64;
    results = lru_create 64;
    inflight = Hashtbl.create 8;
    size;
    max_entries;
    max_bytes;
    max_plans;
    hits = 0;
    misses = 0;
    plan_hits = 0;
    plan_misses = 0;
    evictions = 0;
    sf_waits = 0 }

let locked c f =
  Mutex.lock c.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mu) f

(* ------------------------------------------------------------------ plans -- *)

let plan c src parse =
  match locked c (fun () -> lru_find c.plans src) with
  | Some p ->
    locked c (fun () -> c.plan_hits <- c.plan_hits + 1);
    Obs.inc m_plan_hits;
    p
  | None ->
    (* Parse outside the lock; a concurrent duplicate parse of the same text
       is harmless (last writer wins, both plans are equal). *)
    let p = parse src in
    locked c (fun () ->
        c.plan_misses <- c.plan_misses + 1;
        ignore (lru_add c.plans src p ~size:0);
        let (_ : int * int) =
          lru_trim c.plans ~max_entries:c.max_plans ~max_bytes:max_int
        in
        ());
    Obs.inc m_plan_misses;
    p

(* ---------------------------------------------------------------- results -- *)

let find ?(doc = "") c ~query ~epoch =
  let r = locked c (fun () ->
      match lru_find c.results (doc, query, epoch) with
      | Some v ->
        c.hits <- c.hits + 1;
        Some v
      | None -> None)
  in
  (match r with Some _ -> Obs.inc m_hits | None -> ());
  r

(* Insert (or overwrite) under the lock, trimming to both bounds; oversized
   values are not stored at all (they would immediately evict the whole
   cache for nothing). The new entry is the most recent and fits on its own,
   so trimming never evicts it. *)
let insert_locked (c : _ t) key v ~size:sz =
  if sz <= c.max_bytes then begin
    let old_bytes, added =
      match lru_add c.results key v ~size:sz with
      | Some old -> (old, 0)
      | None -> (0, 1)
    in
    let evicted, freed =
      lru_trim c.results ~max_entries:c.max_entries ~max_bytes:c.max_bytes
    in
    c.evictions <- c.evictions + evicted;
    if evicted > 0 then Obs.add m_evictions evicted;
    publish_delta ~bytes:(sz - old_bytes - freed) ~entries:(added - evicted)
  end

let with_result ?(doc = "") c ~query ~epoch compute =
  let key = (doc, query, epoch) in
  Mutex.lock c.mu;
  let rec acquire waited =
    match lru_find c.results key with
    | Some v ->
      c.hits <- c.hits + 1;
      Mutex.unlock c.mu;
      Obs.inc m_hits;
      v
    | None ->
      if Hashtbl.mem c.inflight key then begin
        if not waited then begin
          c.sf_waits <- c.sf_waits + 1;
          Obs.inc m_sf_waits
        end;
        Condition.wait c.cond c.mu;
        (* Re-check: the computer either inserted the value (hit above) or
           failed (inflight gone, no value — this waiter takes over). *)
        acquire true
      end
      else begin
        Hashtbl.replace c.inflight key ();
        c.misses <- c.misses + 1;
        Mutex.unlock c.mu;
        Obs.inc m_misses;
        let v =
          try compute ()
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock c.mu;
            Hashtbl.remove c.inflight key;
            Condition.broadcast c.cond;
            Mutex.unlock c.mu;
            Printexc.raise_with_backtrace e bt
        in
        Mutex.lock c.mu;
        Hashtbl.remove c.inflight key;
        insert_locked c key v ~size:(c.size v);
        Condition.broadcast c.cond;
        Mutex.unlock c.mu;
        v
      end
  in
  acquire false

(* Compare-and-swap on physical identity: only the value the caller read
   may be upgraded. An entry that was evicted, purged by [remove_doc] or
   overwritten meanwhile stays as it is, so a reader still pinned on a
   dropped document's snapshot cannot plant its value under a successor's
   key. *)
let replace ?(doc = "") (c : _ t) ~query ~epoch ~old v =
  let key = (doc, query, epoch) in
  let sz = c.size v in
  locked c (fun () ->
      match Hashtbl.find_opt c.results.tbl key with
      | Some n when n.value == old && sz <= c.max_bytes ->
        insert_locked c key v ~size:sz
      | Some _ | None -> ())

(* --------------------------------------------------------------- plumbing -- *)

(* Purge one document's result entries — for [drop_doc]/vacuum: a document
   re-created under the same name restarts its epoch counter at 0, so
   entries left behind by the old incarnation could otherwise serve stale
   results to the new one. Plans survive (they are document-independent). *)
let remove_doc c doc =
  locked c (fun () ->
      let victims =
        Hashtbl.fold
          (fun ((d, _, _) as key) _ acc -> if d = doc then key :: acc else acc)
          c.results.tbl []
      in
      let freed = ref 0 in
      List.iter
        (fun key ->
          match Hashtbl.find_opt c.results.tbl key with
          | None -> ()
          | Some n ->
            unlink c.results n;
            Hashtbl.remove c.results.tbl key;
            c.results.bytes <- c.results.bytes - n.size;
            freed := !freed + n.size)
        victims;
      publish_delta ~bytes:(- !freed) ~entries:(-(List.length victims)))

let clear c =
  locked c (fun () ->
      let entries = Hashtbl.length c.results.tbl and bytes = c.results.bytes in
      lru_clear c.plans;
      lru_clear c.results;
      publish_delta ~bytes:(-bytes) ~entries:(-entries))

let stats c =
  locked c (fun () ->
      { hits = c.hits;
        misses = c.misses;
        plan_hits = c.plan_hits;
        plan_misses = c.plan_misses;
        evictions = c.evictions;
        singleflight_waits = c.sf_waits;
        entries = Hashtbl.length c.results.tbl;
        bytes = c.results.bytes;
        max_entries = c.max_entries;
        max_bytes = c.max_bytes;
        max_plans = c.max_plans })
