(* Concurrent editing without a root bottleneck.

   Every insert changes the size of ALL its ancestors — including the
   document root. A naive locking protocol would make the root a global
   write hotspot. The paper's fix: size maintenance travels as commutative
   delta-increments, so transactions never write the ancestors' pages.
   Writers here take no lock at all: each reads its pinned snapshot, stages
   its writes on private page copies and is validated at commit
   (first-committer-wins on the pages it wrote), retrying when a concurrent
   commit rewrote one of them first. This example runs several
   writer threads editing disjoint subtrees plus a reader thread, and shows
   (a) all writers commit without ever waiting on the root, (b) the root's
   size ends up exactly base + sum(deltas) regardless of commit order.

   Run with: dune exec examples/concurrent_editing.exe *)

module Up = Core.Schema_up
module View = Core.View
module U = Core.Update
module Txn = Core.Txn
module E = Core.Engine.Make (Core.View)

let n_writers = 4

let inserts_per_writer = 25

let () =
  (* one department subtree per writer: disjoint page sets *)
  let departments =
    List.init n_writers (fun i ->
        Printf.sprintf "<dept id='d%d'><audit/><staff/></dept>" i)
  in
  let xml = "<org>" ^ String.concat "" departments ^ "</org>" in
  let base = Up.of_dom ~page_bits:6 ~fill:0.5 (Xml.Xml_parser.parse xml) in
  let m = Txn.manager base in

  let root_size0 = Txn.read m (fun v -> View.size v (View.root_pre v)) in
  Printf.printf "root size before: %d\n%!" root_size0;

  let rec with_retry f =
    match Txn.with_write m f with
    | () -> ()
    | exception Txn.Aborted _ ->
      Thread.yield ();
      with_retry f
  in
  let writer i =
    Thread.create
      (fun () ->
        for k = 1 to inserts_per_writer do
          with_retry (fun v ->
              match E.parse_eval v (Printf.sprintf "/org/dept[@id='d%d']/staff" i) with
              | [ E.Node staff ] ->
                U.insert v (U.Last_child staff)
                  (Xml.Xml_parser.parse_fragment
                     (Printf.sprintf "<employee writer='%d' n='%d'/>" i k))
              | _ -> failwith "staff subtree not found")
        done)
      ()
  in
  let reader_stop = ref false in
  let reader =
    Thread.create
      (fun () ->
        (* readers see a consistent committed snapshot at every instant *)
        while not !reader_stop do
          Txn.read m (fun v ->
              let total = E.count v (Xpath.Xpath_parser.parse "//employee") in
              let root = View.size v (View.root_pre v) in
              assert (root = root_size0 + total));
          Thread.yield ()
        done)
      ()
  in

  let writers = List.init n_writers writer in
  List.iter Thread.join writers;
  reader_stop := true;
  Thread.join reader;

  let total = n_writers * inserts_per_writer in
  Txn.read m (fun v ->
      Printf.printf "root size after:  %d (= %d + %d commutative deltas)\n"
        (View.size v (View.root_pre v))
        root_size0 total;
      Printf.printf "employees:        %d\n"
        (E.count v (Xpath.Xpath_parser.parse "//employee")));
  match Up.check_integrity base with
  | Ok () -> print_endline "integrity: OK"
  | Error msg -> Printf.printf "integrity FAILED: %s\n" msg
