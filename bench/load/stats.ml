(* Summary statistics for the load benchmark, and the [compare] subcommand
   that judges a change against its parent from two sets of result files. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The quartiles Python's [statistics.quantiles(data, n=4)] computes
   (method "exclusive"), so that spreads agree with Python tooling run on
   the same values. Fewer than two samples give three copies of the
   median. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld < 2 then
    let m = median a in
    (m, m, m)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let geomean l =
  match List.filter (fun x -> x > 0.) l with
  | [] -> Float.nan
  | pos ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. pos
      /. float_of_int (List.length pos))

(* The tail a sample supports: p99 when at least ten samples lie beyond it,
   otherwise the highest percentile that still has ten beyond it. Returns
   the value and the percentile it stands for; with ten samples or fewer no
   percentile qualifies and the maximum is returned as p100. *)
let tail a =
  let d = sorted a in
  let n = Array.length d in
  if n = 0 then (Float.nan, 0.)
  else
    let beyond = max 10 (n / 100) in
    let i = n - 1 - beyond in
    if i < 0 then (d.(n - 1), 100.)
    else (d.(i), 100. *. float_of_int (i + 1) /. float_of_int n)

(* ------------------------------------------------------------- compare -- *)

type spec = { better_lower : bool; bound : float option }

let specs benchmark =
  let j = Json.parse (Inputs.read_file benchmark) in
  let entries key =
    List.map
      (fun m ->
        ( Json.str (Json.field "name" m),
          { better_lower = Json.str (Json.field "better" m) = "lower";
            bound = Option.map Json.num (Json.member "bound" m) } ))
      (Json.list (Json.field key j))
  in
  entries "end_to_end" @ entries "per_layer"

(* The metrics of one saved run: the last line of its standard output. A
   metric that could not be measured reads [null] and is left out. *)
let run_metrics path =
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (Inputs.read_file path))
  in
  match List.rev lines with
  | [] -> []
  | last :: _ ->
    List.filter_map
      (fun (k, v) ->
        match Json.field "value" v with Json.Num x -> Some (k, x) | _ -> None)
      (Json.assoc (Json.field "metrics" (Json.parse last)))

(* Result files are named WORKLOAD.K.json; the K-th files of the two
   directories form one parent/change pair. *)
let load_dir dir =
  let files =
    List.filter_map
      (fun f ->
        match String.split_on_char '.' f with
        | w :: k :: _ -> (
          match int_of_string_opt k with
          | Some k -> Some (w, k, Filename.concat dir f)
          | None -> None)
        | _ -> None)
      (Array.to_list (Sys.readdir dir))
  in
  let workloads = List.sort_uniq compare (List.map (fun (w, _, _) -> w) files) in
  List.map
    (fun w ->
      let runs =
        List.sort compare
          (List.filter_map
             (fun (w', k, p) -> if w' = w then Some (k, p) else None)
             files)
      in
      (w, List.map (fun (_, p) -> run_metrics p) runs))
    workloads

(* The rules of the choosing-metrics guide: a gain needs the change to win
   nine tenths of the pairs and the medians to differ by more than the
   parent's interquartile distance; otherwise a metric whose spread exceeds
   its bound is unresolved unless every change run beats every parent run. *)
let verdict spec a b =
  let better x y = if spec.better_lower then x < y else x > y in
  let pairs = min (Array.length a) (Array.length b) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better b.(i) a.(i) then incr wins
  done;
  let win_frac = float_of_int !wins /. float_of_int (max 1 pairs) in
  let q1a, ma, q3a = quartiles a and q1b, mb, q3b = quartiles b in
  let gain = if spec.better_lower then ma -. mb else mb -. ma in
  let v =
    if win_frac >= 0.9 && gain > q3a -. q1a then "improved"
    else
      match spec.bound with
      | None -> "-"
      | Some bound ->
        let spread = Float.max ((q3a -. q1a) /. ma) ((q3b -. q1b) /. mb) in
        let all_better =
          Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) b
        in
        if spread > bound then
          if all_better then "within bound" else "unresolved"
        else if -.gain /. Float.abs ma > bound then "regressed"
        else "within bound"
  in
  (win_frac, v)

(* The guide's least number of parent/change pairs. *)
let min_pairs = 10

(* Exit status 1 if a metric regressed, and 2 if the two directories
   cannot be judged: a workload missing on one side or with fewer than
   [min_pairs] pairs, or whose files carry no metric BENCHMARK.json
   declares (as the workload-prefixed names of a [--workload all] run). *)
let compare_dirs ~benchmark dir_a dir_b =
  let specs = specs benchmark in
  let a = load_dir dir_a and b = load_dir dir_b in
  Printf.printf "%-15s %-44s %27s %27s %5s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "win" "verdict";
  let regressed = ref false and problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let judge w (name, spec, pairs) =
    let va = Array.of_list (List.map fst pairs) and vb = Array.of_list (List.map snd pairs) in
    if Array.length va < min_pairs then
      problem "%s: %s in %d pairs, at least %d needed" w name (Array.length va) min_pairs
    else begin
      let win, v = verdict spec va vb in
      if v = "regressed" then regressed := true;
      let show x =
        let q1, m, q3 = quartiles x in
        Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3
      in
      Printf.printf "%-15s %-44s %27s %27s %5.2f  %s\n" w name (show va) (show vb) win v
    end
  in
  let workloads = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  if workloads = [] then problem "no WORKLOAD.K.json files in %s or %s" dir_a dir_b;
  List.iter
    (fun w ->
      match (List.assoc_opt w a, List.assoc_opt w b) with
      | None, _ -> problem "%s: no runs in %s" w dir_a
      | _, None -> problem "%s: no runs in %s" w dir_b
      | Some runs_a, Some runs_b ->
        let n = min (List.length runs_a) (List.length runs_b) in
        let first l = List.filteri (fun i _ -> i < n) l in
        let pairs = List.combine (first runs_a) (first runs_b) in
        let rows =
          List.filter_map
            (fun (name, spec) ->
              match
                List.filter_map
                  (fun (x, y) ->
                    match (List.assoc_opt name x, List.assoc_opt name y) with
                    | Some u, Some v -> Some (u, v)
                    | _ -> None)
                  pairs
              with
              | [] -> None
              | both -> Some (name, spec, both))
            specs
        in
        if n < min_pairs then problem "%s: %d pairs, at least %d needed" w n min_pairs
        else if rows = [] then problem "%s: no metric BENCHMARK.json declares" w
        else List.iter (judge w) rows)
    workloads;
  List.iter (Printf.printf "compare: %s\n") (List.rev !problems);
  if !problems <> [] then 2 else if !regressed then 1 else 0
