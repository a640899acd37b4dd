(* lib/fault: registry semantics, the spec parser, and end-to-end
   crash/recovery through real forked children killed by failpoints. *)

let pp_action ppf = function
  | Fault.Crash -> Format.fprintf ppf "crash"
  | Fault.Torn_write f -> Format.fprintf ppf "torn:%g" f
  | Fault.Delay s -> Format.fprintf ppf "delay:%g" s

let pp_policy ppf = function
  | Fault.One_shot -> Format.fprintf ppf "once"
  | Fault.Hit n -> Format.fprintf ppf "hit:%d" n
  | Fault.Prob p -> Format.fprintf ppf "p:%g" p

let action = Alcotest.testable pp_action ( = )

let entry =
  Alcotest.testable
    (fun ppf (s, p, a) -> Format.fprintf ppf "%s=%a@%a" s pp_action a pp_policy p)
    ( = )

(* ------------------------------------------------------------- registry -- *)

let test_one_shot () =
  Fault.reset ();
  Fault.arm "s" ~policy:Fault.One_shot ~action:(Fault.Delay 0.0);
  Alcotest.(check bool) "armed" true (Fault.armed "s");
  Alcotest.(check (option action)) "fires first" (Some (Fault.Delay 0.0)) (Fault.check "s");
  Alcotest.(check bool) "disarmed after firing" false (Fault.armed "s");
  Alcotest.(check (option action)) "silent after" None (Fault.check "s");
  Alcotest.(check int) "fired once" 1 (Fault.fired "s")

let test_hit_n () =
  Fault.reset ();
  Fault.arm "s" ~policy:(Fault.Hit 3) ~action:(Fault.Delay 0.0);
  Alcotest.(check (option action)) "1st" None (Fault.check "s");
  Alcotest.(check (option action)) "2nd" None (Fault.check "s");
  Alcotest.(check (option action)) "3rd" (Some (Fault.Delay 0.0)) (Fault.check "s");
  Alcotest.(check bool) "disarmed" false (Fault.armed "s");
  Alcotest.(check int) "3 evaluations recorded" 3 (Fault.hits "s");
  Alcotest.(check int) "1 firing recorded" 1 (Fault.fired "s");
  (* re-arming resets the per-arm counter but not the statistics *)
  Fault.arm "s" ~policy:(Fault.Hit 2) ~action:(Fault.Delay 0.0);
  Alcotest.(check (option action)) "fresh counter" None (Fault.check "s");
  Alcotest.(check int) "stats cumulative" 4 (Fault.hits "s")

let test_prob_deterministic () =
  let run seed =
    Fault.reset ();
    Fault.arm ~seed "s" ~policy:(Fault.Prob 0.3) ~action:(Fault.Delay 0.0);
    List.init 64 (fun _ -> Option.is_some (Fault.check "s"))
  in
  let a = run 11 in
  Alcotest.(check (list bool)) "same seed, same schedule" a (run 11);
  Alcotest.(check bool) "different seed, different schedule" true (a <> run 12);
  Alcotest.(check bool) "prob stays armed" true (Fault.armed "s");
  Fault.reset ()

let test_disarmed_is_silent () =
  Fault.reset ();
  Alcotest.(check (option action)) "nothing armed" None (Fault.check "s");
  Fault.hit "s";
  (* arming one site must not wake another *)
  Fault.arm "other" ~policy:Fault.One_shot ~action:(Fault.Delay 0.0);
  Alcotest.(check (option action)) "different site" None (Fault.check "s");
  Fault.reset ()

let test_arm_validation () =
  Alcotest.check_raises "hit 0" (Invalid_argument "Fault.arm: hit count must be >= 1")
    (fun () -> Fault.arm "s" ~policy:(Fault.Hit 0) ~action:Fault.Crash);
  Alcotest.check_raises "p > 1"
    (Invalid_argument "Fault.arm: probability must be in [0, 1]") (fun () ->
      Fault.arm "s" ~policy:(Fault.Prob 1.5) ~action:Fault.Crash)

(* ---------------------------------------------------------- spec parser -- *)

let ok = Alcotest.(result (list entry) string)

let test_parse_spec () =
  Alcotest.check ok "single, default policy"
    (Ok [ ("wal.append.after", Fault.One_shot, Fault.Crash) ])
    (Fault.parse_spec "wal.append.after=crash");
  Alcotest.check ok "multi, explicit policies"
    (Ok
       [ ("a", Fault.Hit 3, Fault.Torn_write 0.5);
         ("b", Fault.Prob 0.25, Fault.Delay 0.01) ])
    (Fault.parse_spec "a=torn:0.5@hit:3; b=delay:0.01@p:0.25");
  let is_err name s =
    Alcotest.(check bool) name true (Result.is_error (Fault.parse_spec s))
  in
  is_err "no =" "nonsense";
  is_err "unknown action" "a=explode";
  is_err "torn fraction out of range" "a=torn:2";
  is_err "hit 0" "a=crash@hit:0";
  is_err "empty site" "=crash"

let test_arm_spec () =
  Fault.reset ();
  (match Fault.arm_spec "x=crash@hit:5;y=delay:0" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm_spec: %s" e);
  Alcotest.(check bool) "x armed" true (Fault.armed "x");
  Alcotest.(check bool) "y armed" true (Fault.armed "y");
  Fault.reset ()

(* -------------------------------------------- forked crash / recovery -- *)

let with_dir f =
  let dir = Filename.temp_file "fault_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let base = "<r><i>one</i></r>"

(* Fork a child that checkpoints, arms [site], then runs [n] appends; each
   append commits one more <i>. Returns the child's exit status. *)
let crash_child ~dir ~site ~policy ~action n =
  let ck = Filename.concat dir "store.ck" in
  let wal = ck ^ ".wal" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 null Unix.stdout;
    Unix.dup2 null Unix.stderr;
    Unix.close null;
    let db = Core.Db.of_xml ~page_bits:3 ~wal_path:wal base in
    Core.Db.checkpoint db ck;
    Fault.arm ~seed:1 site ~policy ~action;
    for j = 1 to n do
      ignore
        (Core.Db.update db
           (Printf.sprintf
              {|<xupdate:modifications><xupdate:append select="/r"><i>n%d</i></xupdate:append></xupdate:modifications>|}
              j))
    done;
    Unix._exit 0
  | pid -> snd (Unix.waitpid [] pid)

let recovered_count dir =
  let ck = Filename.concat dir "store.ck" in
  match Core.Db.open_recovered ~checkpoint:ck () with
  | Error e -> Alcotest.failf "recovery failed: %s" (Core.Db.Error.to_string e)
  | Ok db -> Core.Db.get_exn (Core.Db.query_count db "/r/i")

let killed = Unix.WSIGNALED Sys.sigkill

let status =
  Alcotest.testable
    (fun ppf -> function
      | Unix.WEXITED n -> Format.fprintf ppf "exit %d" n
      | Unix.WSIGNALED s -> Format.fprintf ppf "signal %d" s
      | Unix.WSTOPPED s -> Format.fprintf ppf "stopped %d" s)
    ( = )

let test_crash_before_wal () =
  with_dir (fun dir ->
      let st =
        crash_child ~dir ~site:"txn.commit.before_wal" ~policy:(Fault.Hit 2)
          ~action:Fault.Crash 3
      in
      Alcotest.check status "child killed" killed st;
      (* commit 2 died before its WAL frame: only commit 1 survives *)
      Alcotest.(check int) "in-flight txn absent" 2 (recovered_count dir))

let test_crash_after_wal () =
  with_dir (fun dir ->
      let st =
        crash_child ~dir ~site:"txn.commit.after_wal" ~policy:(Fault.Hit 2)
          ~action:Fault.Crash 3
      in
      Alcotest.check status "child killed" killed st;
      (* commit 2's frame reached the log before the crash: it is durable *)
      Alcotest.(check int) "in-flight txn present" 3 (recovered_count dir))

let test_torn_frame () =
  with_dir (fun dir ->
      let st =
        crash_child ~dir ~site:"persist.write_frame" ~policy:(Fault.Hit 2)
          ~action:(Fault.Torn_write 0.5) 3
      in
      Alcotest.check status "child killed" killed st;
      (* commit 2's frame is half-written: replay must stop at the torn
         tail without failing recovery *)
      Alcotest.(check int) "torn tail dropped" 2 (recovered_count dir))

let test_delay_is_benign () =
  with_dir (fun dir ->
      let st =
        crash_child ~dir ~site:"wal.append.before" ~policy:(Fault.Prob 1.0)
          ~action:(Fault.Delay 0.001) 2
      in
      Alcotest.check status "child exits cleanly" (Unix.WEXITED 0) st;
      Alcotest.(check int) "nothing lost" 3 (recovered_count dir))

(* ----------------------------------------- multi-document crash/recovery -- *)

let cat_names = [ Core.Db.default_doc; "beta"; "gamma" ]

(* Fork a child that builds a 3-document catalog on one shared WAL,
   checkpoints, arms [site], then interleaves [n] single-document appends
   (round-robin across the catalog) and finishes with one cross-document
   group commit that appends <g/> to every document. The mixed log that a
   crash leaves behind exercises per-document replay and group atomicity. *)
let crash_multidoc_child ~dir ~site ~policy ~action n =
  let ck = Filename.concat dir "cat.ck" in
  let wal = ck ^ ".wal" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 null Unix.stdout;
    Unix.dup2 null Unix.stderr;
    Unix.close null;
    let db = Core.Db.empty ~wal_path:wal () in
    List.iter
      (fun nm ->
        match Core.Db.create_doc_xml ~page_bits:3 db nm base with
        | Ok () -> ()
        | Error _ -> Unix._exit 3)
      cat_names;
    Core.Db.checkpoint db ck;
    Fault.arm ~seed:1 site ~policy ~action;
    for j = 1 to n do
      ignore
        (Core.Db.update ~doc:(List.nth cat_names (j mod 3)) db
           (Printf.sprintf
              {|<xupdate:modifications><xupdate:append select="/r"><i>n%d</i></xupdate:append></xupdate:modifications>|}
              j))
    done;
    ignore
      (Core.Db.write_multi db cat_names (fun doc ->
           List.iter
             (fun nm ->
               ignore
                 (Core.Db.Session.update (doc nm)
                    {|<xupdate:modifications><xupdate:append select="/r"><g/></xupdate:append></xupdate:modifications>|}))
             cat_names));
    Unix._exit 0
  | pid -> snd (Unix.waitpid [] pid)

let recovered_catalog dir =
  let ck = Filename.concat dir "cat.ck" in
  match Core.Db.open_recovered ~checkpoint:ck () with
  | Error e -> Alcotest.failf "recovery failed: %s" (Core.Db.Error.to_string e)
  | Ok db ->
    List.iter
      (fun nm ->
        match Core.Schema_up.check_integrity (Core.Db.store ~doc:nm db) with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s integrity after recovery: %s" nm m)
      cat_names;
    db

(* 1 + |{j <= k : j mod 3 = idx}| — the seeded <i> plus the round-robin
   appends whose WAL frames landed before the crash *)
let expect_items k idx =
  let c = ref 1 in
  for j = 1 to k do
    if j mod 3 = idx then incr c
  done;
  !c

let check_catalog db ~durable ~group =
  List.iteri
    (fun idx nm ->
      Alcotest.(check int)
        (Printf.sprintf "%s items" nm)
        (expect_items durable idx)
        (Core.Db.get_exn (Core.Db.query_count ~doc:nm db "/r/i"));
      Alcotest.(check int)
        (Printf.sprintf "%s group marker" nm)
        (if group then 1 else 0)
        (Core.Db.get_exn (Core.Db.query_count ~doc:nm db "/r/g")))
    cat_names

let test_crash_multidoc_mid_log () =
  with_dir (fun dir ->
      (* crash inside commit 5 of 5, just after its WAL frame: all five
         round-robin commits replay, each to its own document; the group
         commit never ran *)
      let st =
        crash_multidoc_child ~dir ~site:"txn.commit.after_wal"
          ~policy:(Fault.Hit 5) ~action:Fault.Crash 5
      in
      Alcotest.check status "child killed" killed st;
      check_catalog (recovered_catalog dir) ~durable:5 ~group:false)

let test_crash_multidoc_group_atomic () =
  with_dir (fun dir ->
      (* crash before the group's frame: every single-doc commit is durable,
         the group is absent from ALL documents *)
      let st =
        crash_multidoc_child ~dir ~site:"txn.commit.before_wal"
          ~policy:(Fault.Hit 4) ~action:Fault.Crash 3
      in
      Alcotest.check status "child killed" killed st;
      check_catalog (recovered_catalog dir) ~durable:3 ~group:false)

let test_crash_multidoc_group_durable () =
  with_dir (fun dir ->
      (* crash after the group's frame: the group is present in ALL
         documents — one frame, all or nothing *)
      let st =
        crash_multidoc_child ~dir ~site:"txn.commit.after_wal"
          ~policy:(Fault.Hit 4) ~action:Fault.Crash 3
      in
      Alcotest.check status "child killed" killed st;
      check_catalog (recovered_catalog dir) ~durable:3 ~group:true)

let test_crash_multidoc_torn_group () =
  with_dir (fun dir ->
      (* the group's frame itself is torn mid-write: replay must drop the
         whole group — no document may see a partial application *)
      let st =
        crash_multidoc_child ~dir ~site:"persist.write_frame"
          ~policy:(Fault.Hit 4) ~action:(Fault.Torn_write 0.5) 3
      in
      Alcotest.check status "child killed" killed st;
      check_catalog (recovered_catalog dir) ~durable:3 ~group:false)

(* ------------------------------------------------------------ CLI layer -- *)

let bin =
  List.find Sys.file_exists
    [ "../bin/xqdb.exe"; "_build/default/bin/xqdb.exe"; "bin/xqdb.exe" ]

let test_torture_cli () =
  with_dir (fun dir ->
      let run args =
        Sys.command
          (Filename.quote_command bin args ^ " > /dev/null 2> /dev/null")
      in
      Alcotest.(check int) "crash site grid entry" 0
        (run
           [ "torture"; "--iters"; "2"; "--ops"; "12"; "--seed"; "99"; "--site";
             "txn.commit.before_wal"; "--artifacts"; Filename.concat dir "a" ]);
      Alcotest.(check int) "torn grid entry" 0
        (run
           [ "torture"; "--iters"; "1"; "--ops"; "12"; "--seed"; "99"; "--action";
             "torn"; "--artifacts"; Filename.concat dir "b" ]))

let test_failpoints_env () =
  let code =
    Sys.command
      ("XQDB_FAILPOINTS=bogus " ^ Filename.quote bin
     ^ " torture --iters 0 > /dev/null 2> /dev/null")
  in
  Alcotest.(check int) "bad spec rejected" 2 code

let () =
  Alcotest.run "fault"
    [ ( "registry",
        [ Alcotest.test_case "one-shot" `Quick test_one_shot;
          Alcotest.test_case "hit-count" `Quick test_hit_n;
          Alcotest.test_case "prob deterministic" `Quick test_prob_deterministic;
          Alcotest.test_case "disarmed silent" `Quick test_disarmed_is_silent;
          Alcotest.test_case "arm validation" `Quick test_arm_validation ] );
      ( "spec",
        [ Alcotest.test_case "parse" `Quick test_parse_spec;
          Alcotest.test_case "arm" `Quick test_arm_spec ] );
      ( "crash-recovery",
        [ Alcotest.test_case "before WAL -> txn absent" `Quick test_crash_before_wal;
          Alcotest.test_case "after WAL -> txn present" `Quick test_crash_after_wal;
          Alcotest.test_case "torn frame -> clean stop" `Quick test_torn_frame;
          Alcotest.test_case "delay -> benign" `Quick test_delay_is_benign ] );
      ( "multidoc-crash",
        [ Alcotest.test_case "mixed log replays per document" `Quick
            test_crash_multidoc_mid_log;
          Alcotest.test_case "group lost before its frame" `Quick
            test_crash_multidoc_group_atomic;
          Alcotest.test_case "group durable after its frame" `Quick
            test_crash_multidoc_group_durable;
          Alcotest.test_case "torn group frame drops whole group" `Quick
            test_crash_multidoc_torn_group ] );
      ( "cli",
        [ Alcotest.test_case "torture smoke" `Quick test_torture_cli;
          Alcotest.test_case "XQDB_FAILPOINTS validation" `Quick test_failpoints_env ] ) ]
