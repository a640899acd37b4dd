(* XQuery over the auction store: the system the paper belongs to is
   MonetDB/XQuery, so here the FLWOR layer runs report-style queries over a
   generated auction site — against the updateable schema, before and after
   structural updates.

   Run with: dune exec examples/xquery_reports.exe *)

module Up = Core.Schema_up
module View = Core.View
module Xq = Xquery.Xq_eval.Make (Core.View)

let () =
  let d = Xmark.Gen.of_scale 0.002 in
  let db = Core.Db.create ~fill:0.8 d in
  let run title q =
    Printf.printf "== %s ==\n%s\n\n" title (Core.Db.read db (fun v -> Xq.run_string v q))
  in

  run "five cheapest open auctions"
    {|let $sorted := for $a in /site/open_auctions/open_auction
                     order by number($a/initial)
                     return $a
      for $a at $i in $sorted
      where $i <= 5
      return <offer rank="{$i}" initial="{string($a/initial)}"
                    item="{string($a/itemref/@item)}"/>|};

  run "regions by stock"
    {|for $r in /site/regions/*
      order by count($r/item) descending
      return concat(name($r), ': ', string(count($r/item)), ' items')|};

  run "bidding summary"
    {|<summary>
        <auctions>{count(/site/open_auctions/open_auction)}</auctions>
        <bids>{count(//bidder)}</bids>
        <hot>{count(/site/open_auctions/open_auction[count(bidder) >= 3])}</hot>
        <avg-initial>{round(avg(for $i in /site/open_auctions/open_auction/initial
                                return number($i)))}</avg-initial>
      </summary>|};

  (* a structural update in between: the same queries keep working on the
     updated pre/post plane *)
  print_endline "-- inserting a privileged bidder into every hot auction --\n";
  let n =
    Core.Db.get_exn (Core.Db.update db
      {|<xupdate:modifications>
          <xupdate:insert-before select="/site/open_auctions/open_auction[count(bidder) >= 3]/bidder[1]">
            <bidder><date>06/07/2026</date><time>00:00:00</time>
              <personref person="person0"/><increase>99.00</increase></bidder>
          </xupdate:insert-before>
        </xupdate:modifications>|})
  in
  Printf.printf "%d auctions updated\n\n" n;

  run "person0's bids after the update"
    {|count(//bidder[personref/@person = 'person0'])|};

  match Up.check_integrity (Core.Db.store db) with
  | Ok () -> print_endline "integrity: OK"
  | Error m -> Printf.printf "integrity FAILED: %s\n" m
