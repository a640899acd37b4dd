(* Quickstart: shred an XML document into the updatable pre/size/level store,
   query it with XPath, change it with XUpdate, and serialise it back.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Parse and shred. [Db.of_xml] builds the pos/size/level store with
     logical pages (default 4096 tuples, 80% filled — the paper's "about 20%
     of the logical pages kept unused"). *)
  let db =
    Core.Db.of_xml
      {|<library>
          <shelf subject="databases">
            <book year="1994"><title>Transaction Processing</title></book>
            <book year="2002"><title>Monet: A Next-Generation DBMS Kernel</title></book>
          </shelf>
          <shelf subject="xml">
            <book year="2002"><title>Accelerating XPath Location Steps</title></book>
          </shelf>
        </library>|}
  in

  (* 2. Query with XPath. Reads pin an MVCC snapshot — no lock held. *)
  print_endline "== titles of post-2000 books ==";
  List.iter print_endline
    (Core.Db.get_exn (Core.Db.query_strings db "//book[@year > 2000]/title/text()"));

  Printf.printf "books in total: %d\n"
    (Core.Db.get_exn (Core.Db.query_count db "//book"));

  (* 3. Update with XUpdate. Each call is one ACID transaction: staged
     privately, validated, committed behind the manager's commit mutex. *)
  let n =
    Core.Db.get_exn (Core.Db.update db
      {|<xupdate:modifications>
          <xupdate:append select="/library/shelf[@subject='xml']">
            <book year="2005">
              <title>Updating the Pre/Post Plane</title>
            </book>
          </xupdate:append>
          <xupdate:update select="/library/shelf[@subject='databases']/book[1]/@year">1993</xupdate:update>
        </xupdate:modifications>|})
  in
  Printf.printf "\n%d target(s) updated\n" n;

  (* 4. Structural updates shift pre numbers — but only virtually: the new
     book's tuples went into page slack or freshly appended pages, and every
     following pre number moved for free through the pageOffset table. *)
  print_endline "\n== the updated document ==";
  print_endline (Core.Db.to_xml ~indent:true db);

  (* 5. The store checks its own invariants. *)
  match Core.Schema_up.check_integrity (Core.Db.store db) with
  | Ok () -> print_endline "\nintegrity: OK"
  | Error m -> Printf.eprintf "integrity violated: %s\n" m
