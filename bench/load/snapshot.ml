(* xmark-snapshot: the paper's Figure 9 workload, in process. XMark Q1-Q20
   run on the MVCC snapshot every [Db] reader uses, of a store aged by
   bidder updates; the same round times each query on the base
   [Schema_up] store and on a read-only [Schema_ro] shred of the same
   document, as per-layer references. *)

module Db = Core.Db
module Q_view = Xmark.Queries.Make (Core.View)
module Q_up = Xmark.Queries.Make (Core.Schema_up)
module Q_ro = Xmark.Queries.Make (Core.Schema_ro)

let aging_writes = 200

(* The aged store, its read-only twin, and what set-up and aging measured. *)
type store = {
  db : Db.t;
  ro : Core.Schema_ro.t;
  reference : Db.t;
  ager : Inputs.client;
  ck : string;
  wal : string;
  setup_s : (float * float) array;  (** each set-up's seconds and scale factor *)
  checkpoint_s : float;
  writes : Check.sample list;
  write_factors : float array;  (** scale factor of each slice of [writes] *)
}

let timed f =
  let t0 = Proc.now () in
  let r = f () in
  (r, Proc.now () -. t0)

let prepare (env : Serve.env) =
  let file = Filename.concat env.dir "main.xml" in
  Inputs.write_doc ~path:file ~scale:env.scale ~seed:env.seed;
  let src = Inputs.read_file file in
  let wal i = Filename.concat env.dir (Printf.sprintf "xmark%d.wal" i) in
  let n = Serve.setups in
  let setups =
    Host.each env.host n (fun i -> timed (fun () -> Db.of_xml ~wal_path:(wal i) src))
  in
  Array.iteri (fun i ((db, _), _) -> if i < n - 1 then Db.close db) setups;
  let db = fst (fst setups.(n - 1)) in
  let ck = Filename.concat env.dir "xmark.ck" in
  let (), checkpoint_s = timed (fun () -> Db.checkpoint db ck) in
  let sh = Inputs.shape env.scale in
  let ager = Inputs.client ~seed:env.seed ~workload:0 0 in
  (* each slice of the aging writes is one stretch between two probes *)
  let groups =
    Host.each env.host Serve.slices (fun g ->
        List.init (aging_writes / Serve.slices) (fun _ ->
            let cmds = Inputs.pair_cmds sh ager in
            let body = Inputs.update_body sh ager cmds in
            let n, lat = timed (fun () -> Check.get (Db.update db body)) in
            if n <> List.length cmds then failwith "an aging update missed its bidder";
            Inputs.acked ager cmds;
            { Check.slice = g; kind = 0; lat }))
  in
  { db;
    ro = Core.Schema_ro.of_dom (Xml.Xml_parser.parse ~strip_ws:true (Db.to_xml db));
    reference = Db.of_xml src;
    ager;
    ck;
    wal = wal (n - 1);
    setup_s = Array.map (fun ((_, t), k) -> (t, k)) setups;
    checkpoint_s;
    writes = List.concat_map fst (Array.to_list groups);
    write_factors = Array.map snd groups }

(* Q1-Q20 in a seeded order. *)
let order rng =
  let a = Array.init Xmark.Queries.query_count (fun i -> i + 1) in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* One query's time [s] in one round on the snapshot, and in a reference
   round its times on the base store and on the read-only shred. *)
type row = { round : int; q : int; view : float; refs : (float * float) option }

(* One round: Q1-Q20 in seeded order, each on a fresh snapshot and, in a
   reference round, then on the base store and on the read-only shred. The
   store does not change, so every answer must equal the one the three
   gave in the first round, which [expected] keeps; [wrong q] is called on
   any other. *)
let round st rng ~refs ~expected ~wrong r =
  List.map
    (fun q ->
      let rv, view = timed (fun () -> Db.read st.db (fun v -> Q_view.run v q)) in
      let refs =
        if not refs then None
        else begin
          let ru, up = timed (fun () -> Q_up.run (Db.store st.db) q) in
          let rr, ro = timed (fun () -> Q_ro.run st.ro q) in
          if ru <> rv || rr <> rv then wrong q;
          Some (up, ro)
        end
      in
      (match Hashtbl.find_opt expected q with
      | None -> Hashtbl.replace expected q rv
      | Some e -> if e <> rv then wrong q);
      { round = r; q; view; refs })
    (order rng)

(* One run. Only its first round is a reference round: the measured window
   goes to the snapshot. Given [replay], this is the short run inside the
   traced run: every round is a reference round, for the per-layer ratios;
   it times no recovery and adds [replay st]'s per-layer numbers, computed
   on the aged store before it is closed. *)
let run ?replay (env : Serve.env) ~seconds =
  let traced = Option.is_some replay in
  let st = prepare env in
  let rng = Random.State.make [| env.seed; 0 |] in
  let expected = Hashtbl.create 32 and differing = ref [] in
  let wrong q = if not (List.mem q !differing) then differing := q :: !differing in
  let deadline = Proc.now () +. seconds in
  (* each round is one slice, between two probes of the host *)
  let factors = ref [] in
  let rec rounds r p acc =
    let acc = round st rng ~refs:(traced || r = 0) ~expected ~wrong r @ acc in
    let p' = Host.probe env.host in
    factors := Host.factor p p' :: !factors;
    if Proc.now () < deadline then rounds (r + 1) p' acc else acc
  in
  let rows = rounds 0 (Host.probe env.host) [] in
  let factors = Array.of_list (List.rev !factors) in
  let wrong =
    List.map
      (fun q ->
        Printf.sprintf "%s differs between View, Schema_up and Schema_ro or between rounds"
          (Xmark.Queries.name q))
      (List.rev !differing)
  in
  let view = List.map (fun x -> { Check.slice = x.round; kind = x.q; lat = x.view }) rows in
  let median_of f q =
    Stats.median
      (Array.of_list (List.filter_map (fun x -> if x.q = q then f x else None) rows))
  in
  let queries = List.init Xmark.Queries.query_count (fun i -> i + 1) in
  let ratio f g = Stats.geomean (List.map (fun q -> median_of f q /. median_of g q) queries) in
  let up x = Option.map fst x.refs and ro x = Option.map snd x.refs in
  let view_ref x = if x.refs = None then None else Some x.view in
  let extra = Option.fold ~none:[] ~some:(fun f -> f st) replay in
  Db.close st.db;
  let (recover_s, raw_recover_s), lost =
    Check.recover ~host:env.host ~xqdb:env.xqdb ~cpu:None ~timed:(not traced) ~dir:env.dir
      ~ck:st.ck ~wal:st.wal ~docs:[ "main" ]
      ~verify:(Check.ledger ~reference:st.reference [ st.ager ])
  in
  let lat, notes =
    Check.latencies ~tail_groups:1 ~reads:(Check.scaled factors view)
      ~writes:(Check.scaled st.write_factors st.writes)
  in
  let raw, _ = Check.latencies ~tail_groups:1 ~reads:view ~writes:st.writes in
  let raw_setup_s = Stats.median (Array.map fst st.setup_s) in
  let rate l = float_of_int (List.length l) /. List.fold_left (fun a s -> a +. s.Check.lat) 0. l in
  { Check.e2e =
      ("setup_s", Check.scaled_median st.setup_s) :: ("recover_s", recover_s) :: lat;
    layers =
      [ ("storage.up_over_ro", ratio up ro);
        ("storage.view_over_up", ratio view_ref up);
        ("setup.shred_s", raw_setup_s);
        ("setup.checkpoint_s", st.checkpoint_s) ]
      @ List.map
          (fun q ->
            (Printf.sprintf "xmark.q%02d_ms" q, 1000. *. median_of (fun x -> Some x.view) q))
          queries
      @ extra;
    attempted = List.length rows + aging_writes;
    failed = List.length wrong + List.length lost;
    problems = wrong @ lost;
    notes =
      notes
      @ [ Check.unscaled (("setup_s", raw_setup_s) :: ("recover_s", raw_recover_s) :: raw);
          Printf.sprintf
            "throughput: %.6g queries per second of snapshot time (unscaled)" (rate view) ] }
