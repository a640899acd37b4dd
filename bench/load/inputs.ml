(* Seeded inputs: the XMark documents, the request texts of each workload,
   and the per-client generators of the write stream. The program under
   test only ever sees the files written here and the request texts. *)

module P = Server.Protocol

type shape = {
  people : int;
  items : int;
  open_auctions : int;
  closed_auctions : int;
}

let shape scale =
  let c = Xmark.Gen.config_of_scale scale in
  { people = c.people;
    items = c.items;
    open_auctions = c.open_auctions;
    closed_auctions = c.closed_auctions }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let write_doc ~path ~scale ~seed =
  write_file path
    (Xml.Xml_serialize.to_string ~decl:true (Xmark.Gen.of_scale ~seed scale))

let auction_id k = Printf.sprintf "open_auction%d" k

let bidders_of auction =
  Printf.sprintf "/site/open_auctions/open_auction[@id='%s']/bidder" auction

(* ------------------------------------------------------------ read texts -- *)

(* serve-hot's 32 texts: one field of every person, item, open or closed
   auction — a field each of them has exactly once, so a result's size is
   fixed by the scale and not by the seed. Every hit re-renders its whole
   result, which makes rendering, not the round trip, the bulk of a
   request. Entities alternate along the Zipf ranks (the array order). *)
let hot_pool =
  let fields entity l = List.map (fun f -> P.Query (entity ^ "/" ^ f)) l in
  let by_entity =
    [ fields "/site/people/person"
        [ "name"; "emailaddress"; "@id"; "profile/@income"; "profile/gender";
          "profile/age"; "profile/business"; "profile/interest/@category" ];
      fields "/site/regions/*/item"
        [ "name"; "location"; "quantity"; "payment"; "shipping"; "@id";
          "incategory[1]/@category"; "incategory[1]" ];
      fields "/site/open_auctions/open_auction"
        [ "initial"; "current"; "quantity"; "type"; "@id"; "seller/@person";
          "itemref/@item"; "interval/start" ];
      fields "/site/closed_auctions/closed_auction"
        [ "price"; "date"; "quantity"; "type"; "seller/@person"; "buyer/@person";
          "itemref/@item"; "annotation/happiness" ] ]
  in
  Array.of_list
    (List.concat (List.init 8 (fun i -> List.map (fun l -> List.nth l i) by_entity)))

(* serve-cold's key space: every person, item, open and closed auction, one
   selective text per key. Returns the text and its kind (the entity), the
   unit [geomean_ms] averages over. *)
let cold_keys sh = sh.people + sh.items + sh.open_auctions + sh.closed_auctions

let cold_text sh k =
  if k < sh.people then
    (0, P.Query (Printf.sprintf "/site/people/person[@id='person%d']/name" k))
  else
    let k = k - sh.people in
    if k < sh.items then
      (1, P.Query (Printf.sprintf "/site/regions/*/item[@id='item%d']/location" k))
    else
      let k = k - sh.items in
      if k < sh.open_auctions then (2, P.Count (bidders_of (auction_id k)))
      else
        let k = k - sh.open_auctions in
        ( 3,
          P.Query
            (Printf.sprintf "/site/closed_auctions/closed_auction[%d]/price" (k + 1))
        )

(* Zipf(1.0) ranks over [n] texts, as a cumulative table. *)
let zipf n =
  let w = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let hot_cdf = zipf (Array.length hot_pool)

let draw_hot rng =
  let u = Random.State.float rng 1. in
  let rec go i =
    if i >= Array.length hot_cdf - 1 || u <= hot_cdf.(i) then i else go (i + 1)
  in
  go 0

(* ---------------------------------------------------------------- writes -- *)

(* A client's bidder commands. Each inserted bidder carries a tag unique to
   its client in its <time> child, so a client removes only bidders it added
   and saw acknowledged. *)
type cmd = Insert of { auction : string; tag : string } | Remove of { auction : string; tag : string }

type client = {
  id : int;
  rng : Random.State.t;
  mutable tags : int;
  mutable own : (string * string) list;  (** acknowledged, not yet removed *)
  mutable recent : string list;  (** auctions this client wrote lately *)
  mutable reads : int;
  net : (string, int) Hashtbl.t;  (** acknowledged inserts minus removes *)
}

let client ~seed ~workload id =
  { id;
    rng = Random.State.make [| seed; workload; id |];
    tags = 0;
    own = [];
    recent = [];
    reads = 0;
    net = Hashtbl.create 64 }

let cmd_xml sh c = function
  | Insert { auction; tag } ->
    Printf.sprintf
      {|<xupdate:append select="/site/open_auctions/open_auction[@id='%s']"><bidder><date>06/06/2005</date><time>%s</time><personref person="person%d"/><increase>3.00</increase></bidder></xupdate:append>|}
      auction tag
      (Random.State.int c.rng sh.people)
  | Remove { auction; tag } ->
    Printf.sprintf {|<xupdate:remove select="%s[time='%s']"/>|}
      (bidders_of auction) tag

let insert sh c =
  c.tags <- c.tags + 1;
  Insert
    { auction = auction_id (Random.State.int c.rng sh.open_auctions);
      tag = Printf.sprintf "c%d-%d" c.id c.tags }

(* Removes leave [own] at once and come back if the update finally fails. *)
let remove c (auction, tag) =
  c.own <- List.filter (fun (_, t) -> t <> tag) c.own;
  Remove { auction; tag }

(* [n] commands, insert and remove equally likely while the client owns a
   bidder (always remove at 16), so the document size stays stationary. *)
let write_cmds sh c n =
  List.init n (fun _ ->
      let owned = List.length c.own in
      if owned > 0 && (owned >= 16 || Random.State.bool c.rng) then
        remove c (List.nth c.own (Random.State.int c.rng owned))
      else insert sh c)

(* The aging and epilogue write: a new bidder plus the removal of this
   client's oldest one, so that every such write has the same shape and
   cost (a mixture of cheap removes and dear inserts has an unstable
   median). *)
let pair_cmds sh c =
  let oldest = match List.rev c.own with [] -> [] | b :: _ -> [ remove c b ] in
  insert sh c :: oldest

let update_body sh c cmds =
  "<xupdate:modifications>"
  ^ String.concat "" (List.map (cmd_xml sh c) cmds)
  ^ "</xupdate:modifications>"

let bump c auction d =
  Hashtbl.replace c.net auction
    (d + Option.value ~default:0 (Hashtbl.find_opt c.net auction))

let acked c cmds =
  List.iter
    (function
      | Insert { auction; tag } ->
        c.own <- (auction, tag) :: c.own;
        c.recent <- auction :: List.filteri (fun i _ -> i < 7) c.recent;
        bump c auction 1
      | Remove { auction; _ } -> bump c auction (-1))
    cmds

let failed c cmds =
  List.iter
    (function
      | Remove { auction; tag } -> c.own <- (auction, tag) :: c.own
      | Insert _ -> ())
    cmds

(* ------------------------------------------------------------ operations -- *)

type check =
  | Expect of int  (** index into the document's precomputed hot answers *)
  | Sample  (** compared with the reference store on every 50th read *)
  | Unchecked  (** a document that is being written *)

type op =
  | Read of { doc : string; req : P.request; kind : int; check : check }
  | Write of { cmds : cmd list; body : string }

let write_op sh c cmds = Write { cmds; body = update_body sh c cmds }

let hot_op c =
  let i = draw_hot c.rng in
  Read { doc = "main"; req = hot_pool.(i); kind = i; check = Expect i }

let cold_op sh c =
  let kind, req = cold_text sh (Random.State.int c.rng (cold_keys sh)) in
  Read { doc = "main"; req; kind; check = Sample }

(* serve-mixed: 20% writes of 1-4 commands on [main] — 2 for half of them
   and 1 for a quarter, so that the median write falls in the middle of one
   size class rather than on the edge between two. Of the reads, half are
   hot texts on [mirror] (kind 3) and half point lookups on [main]: either
   the bidders of an auction this client is writing (kind 1) or a
   serve-cold key (kind 2). *)
let mixed_op sh c =
  let r = Random.State.float c.rng 1. in
  if r < 0.2 then
    let n = [| 1; 1; 2; 2; 2; 2; 3; 4 |].(Random.State.int c.rng 8) in
    write_op sh c (write_cmds sh c n)
  else if r < 0.6 then
    let i = draw_hot c.rng in
    Read { doc = "mirror"; req = hot_pool.(i); kind = 3; check = Expect i }
  else
    match c.recent with
    | _ :: _ when Random.State.bool c.rng ->
      let a = List.nth c.recent (Random.State.int c.rng (List.length c.recent)) in
      Read { doc = "main"; req = P.Count (bidders_of a); kind = 1; check = Unchecked }
    | _ ->
      let _, req = cold_text sh (Random.State.int c.rng (cold_keys sh)) in
      Read { doc = "main"; req; kind = 2; check = Unchecked }
