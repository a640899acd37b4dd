(* The paper's workload end-to-end: generate an XMark auction site, load it
   into both schemas, compare query times and storage, then age the
   updateable store with XUpdate-style churn and show queries still work.

   Run with: dune exec examples/auction_site.exe *)

module Ro = Core.Schema_ro
module Up = Core.Schema_up
module Q_ro = Xmark.Queries.Make (Core.Schema_ro)
module Q_up = Xmark.Queries.Make (Core.Schema_up)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let scale = 0.005 in
  Printf.printf "generating XMark document at scale %.3f...\n%!" scale;
  let d = Xmark.Gen.of_scale scale in
  Printf.printf "  %d nodes\n" (Xml.Dom.node_count d);

  let ro, t_ro = time (fun () -> Ro.of_dom d) in
  let up, t_up = time (fun () -> Up.of_dom ~fill:0.8 d) in
  Printf.printf "shredding: read-only %.3fs, updateable %.3fs\n" t_ro t_up;

  let ro_bytes = (Ro.stats ro).Core.Storage_intf.approx_bytes
  and up_bytes = (Up.stats up).Core.Storage_intf.approx_bytes in
  Printf.printf "storage: ro %d bytes, up %d bytes (%.0f%% more)\n" ro_bytes up_bytes
    (100.0 *. (float_of_int up_bytes /. float_of_int ro_bytes -. 1.0));

  print_endline "\nquery        ro [ms]    up [ms]   overhead   (identical answers)";
  List.iter
    (fun q ->
      let r1, t1 = time (fun () -> Q_ro.run ro q) in
      let r2, t2 = time (fun () -> Q_up.run up q) in
      assert (r1 = r2);
      Printf.printf "Q%-2d        %8.2f   %8.2f   %7.0f%%   card=%d\n" q
        (1000.0 *. t1) (1000.0 *. t2)
        (100.0 *. ((t2 /. t1) -. 1.0))
        r1.Xmark.Queries.cardinality)
    [ 1; 2; 6; 8; 14; 15; 19 ];

  (* Age the updateable store the way a live site would: bidders come and
     go, pages fragment, the pageOffset table fills with splices. *)
  print_endline "\naging the updateable store with 500 structural updates...";
  let applied = Xmark.Workload.churn up ~ops:500 ~seed:7 in
  Printf.printf "  %d update operations applied, %d logical pages now\n" applied
    (Up.npages up);
  (match Up.check_integrity up with
  | Ok () -> print_endline "  integrity: OK"
  | Error m -> Printf.printf "  integrity FAILED: %s\n" m);

  (* Queries keep working on the aged store — that is the whole point. *)
  let r, t = time (fun () -> Q_up.run up 6) in
  Printf.printf "Q6 after aging: %d items in %.2fms\n" r.Xmark.Queries.cardinality
    (1000.0 *. t)
