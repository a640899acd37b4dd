type t = { mutable data : int array; mutable len : int }

let null = min_int

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { data = Array.make capacity 0; len = 0 }

let make n x =
  if n < 0 then invalid_arg "Varray.make";
  { data = Array.make (max n 1) x; len = n }

let of_array a = { data = (if Array.length a = 0 then [| 0 |] else Array.copy a); len = Array.length a }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Varray: index %d out of bounds [0,%d)" i v.len)

let get v i =
  check v i;
  Array.unsafe_get v.data i

let set v i x =
  check v i;
  Array.unsafe_set v.data i x

let grow v needed =
  let cap = Array.length v.data in
  if needed > cap then begin
    let cap' = ref (max cap 1) in
    while !cap' < needed do
      cap' := !cap' * 2
    done;
    let data' = Array.make !cap' 0 in
    Array.blit v.data 0 data' 0 v.len;
    v.data <- data'
  end

let push v x =
  grow v (v.len + 1);
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1;
  v.len - 1

let push_n v n x =
  if n < 0 then invalid_arg "Varray.push_n";
  grow v (v.len + n);
  Array.fill v.data v.len n x;
  v.len <- v.len + n

let pop v =
  if v.len = 0 then invalid_arg "Varray.pop: empty";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Varray.truncate";
  v.len <- n

let ensure_length v n x = if n > v.len then push_n v (n - v.len) x

let blit_within v ~src ~dst ~len =
  if len < 0 || src < 0 || dst < 0 || src + len > v.len || dst + len > v.len
  then invalid_arg "Varray.blit_within";
  Array.blit v.data src v.data dst len

let fill v ~pos ~len x =
  if len < 0 || pos < 0 || pos + len > v.len then invalid_arg "Varray.fill";
  Array.fill v.data pos len x

let copy v = { data = Array.copy v.data; len = v.len }

let to_array v = Array.sub v.data 0 v.len

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let unsafe_data v = v.data

let equal a b =
  a.len = b.len
  &&
  let rec loop i = i >= a.len || (a.data.(i) = b.data.(i) && loop (i + 1)) in
  loop 0
