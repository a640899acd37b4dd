(* [main.exe compare] on made-up result files: ten pairs within the bound
   pass, a clear slowdown regresses, and inputs it cannot judge — fewer
   than ten pairs, or the workload-prefixed names a [--workload all] run
   prints — fail instead of reading as "no regression". *)

let spec_file = "compare_spec.json"

let result_line metrics =
  Printf.sprintf "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {%s}}\n"
    (String.concat ", "
       (List.map
          (fun (n, v) -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"ms\"}" n v)
          metrics))

(* [dir] holds [runs] files of [workload], the K-th with [metrics k]. *)
let make dir ~workload ~runs metrics =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  for k = 1 to runs do
    Inputs.write_file
      (Filename.concat dir (Printf.sprintf "%s.%d.json" workload k))
      ("some text a run prints first\n" ^ result_line (metrics k))
  done

(* A latency that wobbles by 2% around [base]. *)
let latency base k = [ ("read_p50_ms", base *. (1. +. (0.02 *. sin (float_of_int k)))) ]

let failures = ref 0

let expect what want ~a ~b =
  let got = Stats.compare_dirs ~benchmark:spec_file a b in
  if got <> want then begin
    incr failures;
    Printf.printf "FAIL %s: exit %d, expected %d\n%!" what got want
  end

let () =
  Inputs.write_file spec_file
    {|{"end_to_end": [{"name": "read_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
       "per_layer": []}|};
  make "cmp_a" ~workload:"serve-hot" ~runs:10 (latency 2.);
  make "cmp_b" ~workload:"serve-hot" ~runs:10 (latency 2.01);
  expect "ten pairs, same speed" 0 ~a:"cmp_a" ~b:"cmp_b";
  make "cmp_b" ~workload:"serve-hot" ~runs:10 (latency 3.);
  expect "ten pairs, 50% slower" 1 ~a:"cmp_a" ~b:"cmp_b";
  make "cmp_a" ~workload:"serve-hot" ~runs:5 (latency 2.);
  make "cmp_b" ~workload:"serve-hot" ~runs:5 (latency 2.01);
  expect "five pairs" 2 ~a:"cmp_a" ~b:"cmp_b";
  let prefixed k = List.map (fun (n, v) -> ("serve-hot." ^ n, v)) (latency 2. k) in
  make "cmp_a" ~workload:"all" ~runs:10 prefixed;
  make "cmp_b" ~workload:"all" ~runs:10 prefixed;
  expect "a --workload all run" 2 ~a:"cmp_a" ~b:"cmp_b";
  if !failures > 0 then exit 1;
  print_endline "compare: ok"
