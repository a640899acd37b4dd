module View = Core.View
module U = Core.Update
module E = Core.Engine.Make (Core.View)

type rng = { mutable state : int }

let rand r n =
  let x = r.state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = (x lxor (x lsl 17)) land max_int in
  r.state <- x;
  x mod n

let bidder_fragment r =
  Printf.sprintf
    "<bidder><date>06/06/2005</date><time>12:00:00</time><personref person='person%d'/><increase>%d.00</increase></bidder>"
    (rand r 1000) (1 + rand r 50)

let churn store ~ops ~seed =
  let m = Core.Txn.manager store in
  let node_of v pre = View.read_cell v Core.Schema_up.Cnode (View.pos_of_pre v pre) in
  let auctions =
    Core.Txn.read m (fun v ->
        List.map (node_of v)
          (E.eval_nodes v (Xpath.Xpath_parser.parse "/site/open_auctions/open_auction")))
  in
  if auctions = [] then 0
  else begin
    let auctions = Array.of_list auctions in
    let r = { state = (if seed = 0 then 1 else seed) } in
    let inserted = ref [] in
    let applied = ref 0 in
    (* Resolve a node id through the view; [None] once it was deleted. *)
    let pre_of v node =
      match View.node_pos_get v node with
      | pos when pos <> Column.Varray.null -> Some (View.pre_of_pos v pos)
      | _ -> None
    in
    for i = 1 to ops do
      Core.Txn.with_write m (fun v ->
          match !inserted with
          | node :: rest when i land 1 = 0 ->
            inserted := rest;
            Option.iter
              (fun pre ->
                U.delete v ~pre;
                incr applied)
              (pre_of v node)
          | _ ->
            let auction = auctions.(rand r (Array.length auctions)) in
            Option.iter
              (fun pre ->
                let frag = Xml.Xml_parser.parse_fragment (bidder_fragment r) in
                U.insert v (U.First_child pre) frag;
                (* remember the bidder's node id for a later delete *)
                (match
                   E.eval_nodes v ~context:[ pre ] (Xpath.Xpath_parser.parse "bidder[1]")
                 with
                | b :: _ -> inserted := node_of v b :: !inserted
                | [] -> ());
                incr applied)
              (pre_of v auction))
    done;
    !applied
  end

let insert_bidder_xupdate ~auction_id ~person =
  Printf.sprintf
    {|<xupdate:modifications>
        <xupdate:append select="/site/open_auctions/open_auction[@id='%s']">
          <bidder><date>06/06/2005</date><time>12:00:00</time><personref person='%s'/><increase>3.00</increase></bidder>
        </xupdate:append>
      </xupdate:modifications>|}
    auction_id person

let delete_last_bidder_xupdate ~auction_id =
  Printf.sprintf
    {|<xupdate:modifications>
        <xupdate:remove select="/site/open_auctions/open_auction[@id='%s']/bidder[last()]"/>
      </xupdate:modifications>|}
    auction_id
