(* MVCC version descriptors for snapshot-isolated reads.

   The base store is updated in place at commit (the paper's Figure 8
   protocol), so snapshots are maintained as an *undo* chain: just before
   commit [n+1] overwrites a page / node-pos entry / attribute row, it
   captures the pre-image into the descriptor of version [n]. A reader
   pinned at version [k] resolves a datum by walking the chain from [k]
   towards the newest version — the first capture it meets is the datum's
   content as of the *moment that committer started*, which (commits being
   serialised) equals its content at every epoch in [k, m-1]; if no version
   captured it, the base still holds the epoch-[k] value.

   Torn reads are prevented by a store-wide seqlock: the commit critical
   section flips [seq] odd, captures, applies, installs the new descriptor,
   and flips [seq] back even; readers retry any read that overlaps an odd
   or changed [seq] — or, while their version is current ([is_current]),
   read the base and check [seq] once afterwards. Readers therefore never
   take a lock on the query path (a dictionary probe takes the [Values]
   mutex for domain safety, but that is a point mutex unrelated to commit
   progress). *)

open Column
module IMap = Map.Make (Int)

type t = {
  epoch : int;  (* LSN of the commit that produced this version *)
  base : Schema_up.t;
  pmap : Pagemap.t;  (* frozen copy-on-write pageOffset as of [epoch] *)
  npages : int;
  live : int;
  node_hwm : int;  (* node-id allocator extent as of [epoch] *)
  attr_hwm : int;  (* attribute-table length as of [epoch] *)
  seq : int Atomic.t;  (* the store-wide seqlock, shared by every version *)
  stable_seq : int;  (* what [seq] holds once this version is fully installed *)
  mutable refs : int;
  mutable vacuumed : int;  (* LSN of a vacuum that dropped this version, 0 if none *)
  mutable pages : int array array IMap.t;  (* phys page -> column pre-images *)
  mutable node_pos : int IMap.t;  (* node id -> pre-image pos *)
  mutable attr_rows : (int * int * int) IMap.t;  (* row -> (owner, qn, prop) *)
  mutable next : t option;
}

type store = {
  mu : Mutex.t;
  quiescent : Condition.t;
  seq0 : int Atomic.t;
  sbase : Schema_up.t;
  mutable newest : t;
  mutable oldest : t;
  mutable nversions : int;
  mutable pinned_total : int;
}

(* ------------------------------------------------------------- metrics -- *)

let m_live_versions =
  Obs.gauge ~help:"version descriptors alive (chain length)" "mvcc.live_versions"

let m_pinned =
  Obs.gauge ~help:"readers currently pinning a snapshot" "mvcc.pinned_readers"

let m_reclaimed =
  Obs.counter ~help:"version descriptors reclaimed after last unpin"
    "mvcc.versions_reclaimed"

let m_commit_cs =
  Obs.histogram ~help:"commit critical section (capture + apply) [s]"
    "mvcc.commit_cs_latency"

let m_pins = Obs.counter ~help:"snapshot pins" "mvcc.pins"

let m_captured_pages =
  Obs.counter ~help:"page pre-images captured for older snapshots"
    "mvcc.captured_pages"

(* --------------------------------------------------------- construction -- *)

(* A descriptor is built either before any commit ([seq] even) or inside
   the write section that installs it ([seq] odd); either way the next even
   value is what [seq] reads once the version is fully installed. *)
let descriptor ~epoch ~seq base =
  { epoch;
    base;
    pmap = Pagemap.freeze (Schema_up.pagemap base);
    npages = Schema_up.npages base;
    live = Schema_up.node_count base;
    node_hwm = Schema_up.node_ids base;
    attr_hwm = Schema_up.attr_table_len base;
    seq;
    stable_seq = (Atomic.get seq + 1) land lnot 1;
    refs = 0;
    vacuumed = 0;
    pages = IMap.empty;
    node_pos = IMap.empty;
    attr_rows = IMap.empty;
    next = None }

let create ~epoch base =
  let seq0 = Atomic.make 0 in
  let v = descriptor ~epoch ~seq:seq0 base in
  Obs.set m_live_versions 1.0;
  { mu = Mutex.create ();
    quiescent = Condition.create ();
    seq0;
    sbase = base;
    newest = v;
    oldest = v;
    nversions = 1;
    pinned_total = 0 }

let newest s = s.newest

let epoch v = v.epoch

let base v = v.base

let pmap v = v.pmap

let npages v = v.npages

let live v = v.live

let node_hwm v = v.node_hwm

let attr_hwm v = v.attr_hwm

let vacuumed v = v.vacuumed

(* ------------------------------------------------------------ pin/unpin -- *)

let locked s f =
  Mutex.lock s.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mu) f

let hold_locked s =
  let v = s.newest in
  v.refs <- v.refs + 1;
  v

let pin s =
  locked s (fun () ->
      let v = hold_locked s in
      s.pinned_total <- s.pinned_total + 1;
      Obs.inc m_pins;
      Obs.set m_pinned (float_of_int s.pinned_total);
      v)

(* Reclamation drops the unpinned *prefix* of the chain: a reader pinned at
   version [k] may need the overlay of every version >= k, so versions are
   only freed oldest-first once nothing can reach them. *)
let reclaim_locked s =
  let dropped = ref 0 in
  while s.oldest != s.newest && s.oldest.refs = 0 do
    (match s.oldest.next with
    | Some v -> s.oldest <- v
    | None -> assert false);
    incr dropped
  done;
  if !dropped > 0 then begin
    s.nversions <- s.nversions - !dropped;
    Obs.add m_reclaimed !dropped;
    Obs.set m_live_versions (float_of_int s.nversions)
  end

let unpin s v =
  locked s (fun () ->
      v.refs <- v.refs - 1;
      s.pinned_total <- s.pinned_total - 1;
      Obs.set m_pinned (float_of_int s.pinned_total);
      reclaim_locked s;
      if s.pinned_total = 0 then Condition.broadcast s.quiescent)

(* A writer's pin holds back reclamation but not [quiesce]: a vacuum marks
   the writer's version instead, and its reads conflict. *)
let hold s = locked s (fun () -> hold_locked s)

let release s v =
  locked s (fun () ->
      v.refs <- v.refs - 1;
      reclaim_locked s)

(* ------------------------------------------------------------- seqlock -- *)

(* Spinning for a full write section is wrong on a loaded (or single-CPU)
   machine: a reader burning its whole scheduler quantum keeps the committer
   — the one party able to end the odd window — off the core, inflating the
   critical-section latency by orders of magnitude. Spin briefly for the
   common sub-microsecond race, then sleep: [Unix.sleepf] both yields the
   timeslice and parks the domain in a blocking section, so it does not hold
   up GC rendezvous either. *)
let backoff spins =
  if spins < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002

let rec stable_aux sq f spins =
  let s0 = Atomic.get sq in
  if s0 land 1 = 1 then begin
    backoff spins;
    stable_aux sq f (spins + 1)
  end
  else
    let r = f () in
    if Atomic.get sq = s0 then r
    else begin
      backoff spins;
      stable_aux sq f (spins + 1)
    end

let stable v f = stable_aux v.seq f 0

(* The seqlock's first read, hoisted to install time: [seq] only grows, and
   every commit and vacuum makes it odd before touching the base, so while
   it still equals [stable_seq] no write section has begun since [v]'s base
   was complete. *)
let is_current v = Atomic.get v.seq = v.stable_seq

(* ------------------------------------------------------- commit protocol -- *)

(* The committer already holds the manager's commit mutex; [commit_begin]
   just opens the seqlock write section. *)
let commit_begin s =
  let t0 = Obs.monotonic () in
  Atomic.incr s.seq0;
  t0

let commit_end s ~epoch t0 =
  (* Failpoint: sits exactly at the epoch bump, still inside the odd-seq
     window and (via the caller) inside the commit mutex. A delay armed here
     stretches the window in which the base already carries the new state
     but the new descriptor is not yet installed: readers pinning meanwhile
     must get the OLD descriptor (old epoch, pre-image overlays) — which is
     what keeps epoch-keyed result caching safe (test_qcache proves it). *)
  Fault.hit "version.epoch_bump";
  let v = descriptor ~epoch ~seq:s.seq0 s.sbase in
  Mutex.lock s.mu;
  s.newest.next <- Some v;
  s.newest <- v;
  s.nversions <- s.nversions + 1;
  reclaim_locked s;
  Mutex.unlock s.mu;
  Atomic.incr s.seq0;
  Obs.observe m_commit_cs (Obs.monotonic () -. t0);
  Obs.set m_live_versions (float_of_int s.nversions)

(* Pre-image capture, called between [commit_begin] and [commit_end] (so
   inside the odd-seq window) for everything the commit is about to
   overwrite. Captures accumulate in the *current newest* descriptor: it is
   the version whose readers must keep seeing the old content. *)

let capture_page s phys =
  (* Failpoint: dies inside the odd-seq window, after the WAL frame — the
     torture harness checks the transaction survives recovery anyway. *)
  Fault.hit "version.capture";
  let v = s.newest in
  if phys < v.npages && not (IMap.mem phys v.pages) then begin
    v.pages <- IMap.add phys (Schema_up.capture_page v.base phys) v.pages;
    Obs.inc m_captured_pages
  end

let capture_node s id =
  let v = s.newest in
  if id < v.node_hwm && not (IMap.mem id v.node_pos) then
    v.node_pos <- IMap.add id (Schema_up.node_pos_get v.base id) v.node_pos

let capture_attr s row =
  let v = s.newest in
  if row < v.attr_hwm && not (IMap.mem row v.attr_rows) then
    v.attr_rows <- IMap.add row (Schema_up.attr_row v.base row) v.attr_rows

(* ------------------------------------------------------- snapshot reads -- *)

(* All of the following walk the chain from the pinned version towards the
   newest; callers wrap them in {!stable} so a concurrent commit's
   half-applied base state is never observed. *)

let rec find_page v phys =
  match IMap.find_opt phys v.pages with
  | Some arrays -> Some arrays
  | None -> ( match v.next with None -> None | Some n -> find_page n phys)

let node_pos v id =
  if id >= v.node_hwm then Varray.null
  else
    let rec walk = function
      | None -> Schema_up.node_pos_get v.base id
      | Some w -> (
        match IMap.find_opt id w.node_pos with
        | Some pos -> pos
        | None -> walk w.next)
    in
    walk (Some v)

let attr_row v row =
  let rec walk = function
    | None -> Schema_up.attr_row v.base row
    | Some w -> (
      match IMap.find_opt row w.attr_rows with
      | Some r -> r
      | None -> walk w.next)
  in
  walk (Some v)

(* Attribute rows of a node as of the pinned epoch. Two sources:
   - rows live in the base *now* with [row < attr_hwm]: rows are append-only
     and tombstones permanent, so live-now && allocated-before-epoch implies
     live-at-epoch;
   - rows tombstoned by a commit after the epoch: their pre-image sits in
     exactly one overlay of the chain (a row is tombstoned at most once). *)
let base_attr_entries v node =
  List.filter_map
    (fun row ->
      if row >= v.attr_hwm then None
      else
        let _, qn, prop = Schema_up.attr_row v.base row in
        Some (row, qn, prop))
    (Schema_up.attr_rows_of_node v.base node)

let attr_entries v node =
  let from_base = base_attr_entries v node in
  let resurrected = ref [] in
  let rec walk = function
    | None -> ()
    | Some w ->
      IMap.iter
        (fun row (owner, qn, prop) ->
          if owner = node && row < v.attr_hwm then
            resurrected := (row, qn, prop) :: !resurrected)
        w.attr_rows;
      walk w.next
  in
  walk (Some v);
  List.sort_uniq
    (fun (a, _, _) (b, _, _) -> compare a b)
    (from_base @ !resurrected)

(* ----------------------------------------------------------- quiescence -- *)

(* Block until no snapshot is pinned, then run [f] with new pins excluded
   (the store mutex is held throughout) and the seqlock held odd so staged
   transactions' reads retry instead of observing a half-compacted store.
   [f] returns the epoch of the rebuilt store; the chain is reset to a single
   fresh descriptor at that epoch — the old overlays describe physical
   positions that compaction just invalidated, so every old version, a
   writer's included, is marked vacuumed. *)
let quiesce s f =
  Mutex.lock s.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock s.mu)
    (fun () ->
      while s.pinned_total > 0 do
        Condition.wait s.quiescent s.mu
      done;
      Atomic.incr s.seq0;
      Fun.protect
        ~finally:(fun () -> Atomic.incr s.seq0)
        (fun () ->
          let epoch = f () in
          let rec mark = function
            | None -> ()
            | Some w ->
              w.vacuumed <- epoch;
              mark w.next
          in
          mark (Some s.oldest);
          let v = descriptor ~epoch ~seq:s.seq0 s.sbase in
          s.newest <- v;
          s.oldest <- v;
          s.nversions <- 1;
          Obs.set m_live_versions 1.0))
