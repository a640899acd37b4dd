(* The speed of the host, which every reported time is scaled by.

   The machine this benchmark runs on is shared: how fast it runs the same
   code drifts by tens of percent over seconds and over minutes, so a raw
   time says as much about the neighbours as about xqdb. A fixed kernel —
   sorting, hashing and allocating with the OCaml standard library only,
   no xqdb code — is timed before and after every stretch of timed
   operations, and each operation's time is multiplied by [reference]
   over the mean of the two kernel times around it: the time it would
   have taken on a host that runs the kernel in [reference] seconds.

   The kernel runs in a child process (this executable, with the single
   argument [probe]) so that the heap and the garbage collector of the
   code under test cannot change its time. The probe stands only for the
   CPU it runs on: each virtual CPU of the machine speeds up and slows
   down on its own. So run.sh pins the benchmark to one CPU and passes
   another as [--server-cpu]; a serve workload's servers and probe run
   there, and xmark-snapshot's probe runs on the benchmark's CPU. *)

(* ------------------------------------------------------------ the kernel -- *)

let keys =
  let rng = Random.State.make [| 7 |] in
  Array.init 8192 (fun _ -> Random.State.bits rng)

let table = Hashtbl.create 8192

(* Sorting and hashing, and a list built and reversed. The child's minor
   heap is small (see [serve]), so the list is promoted: the kernel also
   times the major heap and the collector, which is where xqdb spends
   much of its time. *)
let kernel () =
  let a = Array.copy keys in
  Array.sort compare a;
  Hashtbl.reset table;
  Array.iter (fun k -> Hashtbl.replace table k k) keys;
  let s = Array.fold_left (fun s k -> s + Hashtbl.find table k) 0 a in
  let l = List.init 30_000 (fun i -> (i, string_of_int i)) in
  s + List.length (List.rev l)

(* Seconds of one probe: the median of three kernel runs. *)
let time_kernel () =
  let t =
    Array.init 3 (fun _ ->
        let t0 = Obs.monotonic () in
        ignore (Sys.opaque_identity (kernel ()));
        Obs.monotonic () -. t0)
  in
  Array.sort Float.compare t;
  t.(1)

(* The child: one probe per line read, its seconds written back, until
   end of input. *)
let serve () =
  Gc.set { (Gc.get ()) with minor_heap_size = 32_768 };
  for _ = 1 to 10 do
    ignore (time_kernel ())
  done;
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.17g\n%!" (time_kernel ())
    done
  with End_of_file -> ()

(* ------------------------------------------------------------ the parent -- *)

(* Seconds the kernel takes on the reference host: about the median probe
   on the 2-vCPU virtual machine this benchmark was built on. *)
let reference = 0.008

type t = { pid : int; req : out_channel; resp : in_channel; mutable probes : float list }

(* Start the child, on CPU [cpu] when it is given. *)
let start ?cpu () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Proc.create_process ?cpu exe [| exe; "probe" |] req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  { pid;
    req = Unix.out_channel_of_descr req_w;
    resp = Unix.in_channel_of_descr resp_r;
    probes = [] }

(* End of input ends the child; wait for it. *)
let stop h =
  close_out_noerr h.req;
  close_in_noerr h.resp;
  ignore (Unix.waitpid [] h.pid)

let probe h =
  output_char h.req '\n';
  flush h.req;
  let s = float_of_string (input_line h.resp) in
  h.probes <- s :: h.probes;
  s

(* The scale factor of a stretch between two probes. *)
let factor p0 p1 = reference /. ((p0 +. p1) /. 2.)

(* [each h n f] runs [f 0] … [f (n-1)] with a probe before the first and
   after each, and returns each result with its stretch's scale factor. *)
let each h n f =
  let p = ref (probe h) in
  Array.init n (fun i ->
      let r = f i in
      let p' = probe h in
      let k = factor !p p' in
      p := p';
      (r, k))

let summary h =
  let a = Array.of_list h.probes in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then "host: no probe taken"
  else
    Printf.sprintf
      "host: %d probes of the speed kernel took %.3g-%.3g ms, median %.3g ms; times are scaled to %.3g ms"
      n (1000. *. a.(0)) (1000. *. a.(n - 1)) (1000. *. a.(n / 2)) (1000. *. reference)
