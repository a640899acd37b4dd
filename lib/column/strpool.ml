type t = { mutable data : string array; mutable len : int }

let create ?(capacity = 16) () =
  { data = Array.make (max capacity 1) ""; len = 0 }

let length p = p.len

let check p i =
  if i < 0 || i >= p.len then
    invalid_arg (Printf.sprintf "Strpool: index %d out of bounds [0,%d)" i p.len)

let get p i =
  check p i;
  Array.unsafe_get p.data i

let set p i s =
  check p i;
  Array.unsafe_set p.data i s

let grow p needed =
  let cap = Array.length p.data in
  if needed > cap then begin
    let cap' = ref (max cap 1) in
    while !cap' < needed do
      cap' := !cap' * 2
    done;
    let data' = Array.make !cap' "" in
    Array.blit p.data 0 data' 0 p.len;
    p.data <- data'
  end

let push p s =
  grow p (p.len + 1);
  Array.unsafe_set p.data p.len s;
  p.len <- p.len + 1;
  p.len - 1

let force_set p i s =
  if i < 0 then invalid_arg "Strpool.force_set";
  grow p (i + 1);
  if i >= p.len then begin
    Array.fill p.data p.len (i - p.len) "";
    p.len <- i + 1
  end;
  Array.unsafe_set p.data i s

let iteri f p =
  for i = 0 to p.len - 1 do
    f i (Array.unsafe_get p.data i)
  done
