(* Durability walk-through: WAL, checkpoint, crash, recover.

   Commits write one checksummed frame to the write-ahead log before the
   base tables change (Figure 8: "writing the WAL is the crucial stage in
   transaction commit"). This example commits a few transactions, takes a
   checkpoint mid-stream, commits more, then simulates a crash by tearing
   the last WAL frame — and recovers everything up to the torn frame.

   Run with: dune exec examples/crash_recovery.exe *)

let dir = Filename.temp_file "xqdb_recovery" ""

let () =
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let ck = Filename.concat dir "store.ck" in
  let wal = Filename.concat dir "store.wal" in

  let db =
    Core.Db.of_xml ~wal_path:wal
      "<ledger><account id='a' balance='100'/><account id='b' balance='50'/></ledger>"
  in

  let post n body =
    let cmd =
      Printf.sprintf
        {|<xupdate:modifications>
            <xupdate:append select="/ledger"><entry n="%d">%s</entry></xupdate:append>
          </xupdate:modifications>|}
        n body
    in
    ignore (Core.Db.get_exn (Core.Db.update db cmd));
    Printf.printf "committed entry %d\n%!" n
  in

  post 1 "open";
  post 2 "deposit 40";
  Core.Db.checkpoint db ck;
  print_endline "checkpoint taken (entries 1-2 inside)";
  post 3 "withdraw 10";
  post 4 "this commit will be torn";
  Core.Db.close db;

  (* simulate the crash: the last WAL frame is half-written *)
  let len = (Unix.stat wal).Unix.st_size in
  let fd = Unix.openfile wal [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (len - 11);
  Unix.close fd;
  print_endline "\n-- crash! (last WAL frame torn) --\n";

  let db2 =
    Core.Db.get_exn (Core.Db.open_recovered ~wal_path:wal ~checkpoint:ck ())
  in
  Printf.printf "recovered entries: %s\n"
    (String.concat ", "
       (Core.Db.get_exn (Core.Db.query_strings db2 "/ledger/entry/@n")));
  print_endline "(entry 4 was never durable; entries 1-3 survived)";
  (match Core.Schema_up.check_integrity (Core.Db.store db2) with
  | Ok () -> print_endline "integrity: OK"
  | Error m -> Printf.printf "integrity FAILED: %s\n" m);

  (* life goes on: the recovered store accepts new transactions *)
  ignore
    (Core.Db.get_exn (Core.Db.update db2
       {|<xupdate:modifications>
           <xupdate:append select="/ledger"><entry n="5">recovered and open for business</entry></xupdate:append>
         </xupdate:modifications>|}));
  Printf.printf "after new commit:  %s\n"
    (String.concat ", "
       (Core.Db.get_exn (Core.Db.query_strings db2 "/ledger/entry/@n")));
  Core.Db.close db2;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir
