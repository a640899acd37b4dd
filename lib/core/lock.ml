type page_state = { mutable readers : int list; mutable writer : int option }

let acquisitions mode =
  Obs.counter ~help:"lock acquisitions"
    ~labels:[ ("scope", "page"); ("mode", mode) ]
    "lock.acquisitions"

let m_page_read = acquisitions "read"

let m_page_write = acquisitions "write"

let m_wait =
  Obs.histogram ~help:"time spent blocked waiting for a lock [s]"
    "lock.wait_time"

let m_would_deadlock =
  Obs.counter ~help:"page-lock waits that hit the deadlock timeout"
    "lock.would_deadlock"

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  pages : (int, page_state) Hashtbl.t;
  timeout_s : float;
  (* stdlib Condition has no timed wait; while page-lock waiters exist, a
     ticker thread broadcasts periodically so timeouts can fire even when no
     release ever happens (a true deadlock) *)
  mutable page_waiters : int;
  mutable ticker_running : bool;
}

exception Would_deadlock of { owner : int; page : int }

let create ?(timeout_s = 1.0) () =
  { mu = Mutex.create ();
    cond = Condition.create ();
    pages = Hashtbl.create 64;
    timeout_s;
    page_waiters = 0;
    ticker_running = false }

let start_ticker t =
  if not t.ticker_running then begin
    t.ticker_running <- true;
    let rec tick () =
      Thread.delay 0.02;
      Mutex.lock t.mu;
      Condition.broadcast t.cond;
      let continue = t.page_waiters > 0 in
      if not continue then t.ticker_running <- false;
      Mutex.unlock t.mu;
      if continue then tick ()
    in
    ignore (Thread.create tick ())
  end

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ------------------------------------------------------------ page locks -- *)

let state t page =
  match Hashtbl.find_opt t.pages page with
  | Some s -> s
  | None ->
    let s = { readers = []; writer = None } in
    Hashtbl.add t.pages page s;
    s

let holds_unlocked s owner =
  if s.writer = Some owner then `Write
  else if List.mem owner s.readers then `Read
  else `None

let holds t ~owner ~page =
  locked t (fun () -> holds_unlocked (state t page) owner)

let acquire_page t ~owner ~page ~write =
  let start = Unix.gettimeofday () in
  let deadline = start +. t.timeout_s in
  locked t (fun () ->
      let s = state t page in
      let can_take () =
        match holds_unlocked s owner with
        | `Write -> true
        | `Read ->
          if not write then true
          else s.writer = None && s.readers = [ owner ] (* upgrade *)
        | `None ->
          if write then s.writer = None && s.readers = []
          else s.writer = None
      in
      let waited = ref false in
      while not (can_take ()) do
        if Unix.gettimeofday () > deadline then begin
          Obs.inc m_would_deadlock;
          Obs.observe m_wait (Unix.gettimeofday () -. start);
          raise (Would_deadlock { owner; page })
        end;
        waited := true;
        t.page_waiters <- t.page_waiters + 1;
        start_ticker t;
        Fun.protect
          ~finally:(fun () -> t.page_waiters <- t.page_waiters - 1)
          (fun () -> Condition.wait t.cond t.mu)
      done;
      if !waited then Obs.observe m_wait (Unix.gettimeofday () -. start);
      Obs.inc (if write then m_page_write else m_page_read);
      match holds_unlocked s owner with
      | `Write -> ()
      | `Read ->
        if write then begin
          s.readers <- [];
          s.writer <- Some owner
        end
      | `None ->
        if write then s.writer <- Some owner else s.readers <- owner :: s.readers)

let release_all t ~owner =
  locked t (fun () ->
      Hashtbl.iter
        (fun _ s ->
          if s.writer = Some owner then s.writer <- None;
          if List.mem owner s.readers then
            s.readers <- List.filter (fun o -> o <> owner) s.readers)
        t.pages;
      Condition.broadcast t.cond)

let locked_pages t ~owner =
  locked t (fun () ->
      Hashtbl.fold
        (fun page s acc ->
          if holds_unlocked s owner <> `None then page :: acc else acc)
        t.pages [])
