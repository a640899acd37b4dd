type t = {
  pbits : int;
  mutable log_to_phys : Varray.t;
  mutable phys_to_log : Varray.t;
  mutable shared : bool;
}

let m_splices =
  Obs.counter ~help:"pageOffset splice operations" "pagemap.splices"

let m_spliced_pages =
  Obs.counter ~help:"fresh pages inserted by splices" "pagemap.spliced_pages"

let m_shifted =
  Obs.histogram ~base:1.0 ~buckets:32
    ~help:"logical pages renumbered per splice (the paper's O(N/pagesize) step)"
    "pagemap.shifted_pages"

let create ~bits =
  if bits < 1 || bits > 30 then invalid_arg "Pagemap.create: bits out of [1,30]";
  { pbits = bits;
    log_to_phys = Varray.create ();
    phys_to_log = Varray.create ();
    shared = false }

let bits m = m.pbits

let npages m = Varray.length m.log_to_phys

let capacity m = npages m lsl m.pbits

(* Copy-on-write: [freeze] hands out an O(1) aliasing snapshot and marks both
   handles shared; the first structural mutation through either handle clones
   the backing varrays first, so frozen snapshots stay immutable forever. *)
let unshare m =
  if m.shared then begin
    m.log_to_phys <- Varray.copy m.log_to_phys;
    m.phys_to_log <- Varray.copy m.phys_to_log;
    m.shared <- false
  end

let freeze m =
  m.shared <- true;
  { pbits = m.pbits;
    log_to_phys = m.log_to_phys;
    phys_to_log = m.phys_to_log;
    shared = true }

let append_page m =
  unshare m;
  let phys = Varray.length m.phys_to_log in
  let logical = Varray.push m.log_to_phys phys in
  let _ = Varray.push m.phys_to_log logical in
  phys

let splice m ~at ~count =
  let n = npages m in
  if at < 0 || at > n then invalid_arg "Pagemap.splice: bad position";
  if count < 0 then invalid_arg "Pagemap.splice: bad count";
  if count = 0 then []
  else begin
    unshare m;
    Obs.inc m_splices;
    Obs.add m_spliced_pages count;
    Obs.observe m_shifted (float_of_int (n - at));
    (* Append fresh physical page ids, then rotate them into place. *)
    let fresh = List.init count (fun i -> n + i) in
    Varray.push_n m.log_to_phys count 0;
    Varray.blit_within m.log_to_phys ~src:at ~dst:(at + count) ~len:(n - at);
    List.iteri (fun i phys -> Varray.set m.log_to_phys (at + i) phys) fresh;
    (* Logical indices of every page at or after the splice point changed:
       this is the paper's "the offset of all pages after the insert point is
       incremented" — O(#pages), i.e. O(N / page_size). *)
    Varray.push_n m.phys_to_log count 0;
    for logical = at to n + count - 1 do
      Varray.set m.phys_to_log (Varray.get m.log_to_phys logical) logical
    done;
    fresh
  end

let phys_of_logical m l = Varray.get m.log_to_phys l

let logical_of_phys m p = Varray.get m.phys_to_log p

let pre_to_pos m pre =
  let mask = (1 lsl m.pbits) - 1 in
  (Varray.get m.log_to_phys (pre lsr m.pbits) lsl m.pbits) lor (pre land mask)

let pos_to_pre m pos =
  let mask = (1 lsl m.pbits) - 1 in
  (Varray.get m.phys_to_log (pos lsr m.pbits) lsl m.pbits) lor (pos land mask)

let unsafe_l2p m = Varray.unsafe_data m.log_to_phys

let unsafe_p2l m = Varray.unsafe_data m.phys_to_log

let is_identity m =
  let n = npages m in
  let rec loop i = i >= n || (Varray.get m.log_to_phys i = i && loop (i + 1)) in
  loop 0

let copy m =
  { pbits = m.pbits;
    log_to_phys = Varray.copy m.log_to_phys;
    phys_to_log = Varray.copy m.phys_to_log;
    shared = false }

let to_array m = Varray.to_array m.log_to_phys

let of_array ~bits a =
  let n = Array.length a in
  let seen = Array.make n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n || seen.(p) then
        invalid_arg "Pagemap.of_array: not a permutation";
      seen.(p) <- true)
    a;
  let m =
    { pbits = bits;
      log_to_phys = Varray.of_array a;
      phys_to_log = Varray.make n 0;
      shared = false }
  in
  Array.iteri (fun logical phys -> Varray.set m.phys_to_log phys logical) a;
  m
