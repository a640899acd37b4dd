type t = { ids : (string, int) Hashtbl.t; strings : Strpool.t }

let create ?(capacity = 64) () =
  { ids = Hashtbl.create capacity; strings = Strpool.create ~capacity () }

let intern d s =
  match Hashtbl.find_opt d.ids s with
  | Some id -> id
  | None ->
    let id = Strpool.push d.strings s in
    Hashtbl.add d.ids s id;
    id

let find_opt d s = Hashtbl.find_opt d.ids s

let to_string d id =
  if id < 0 || id >= Strpool.length d.strings then
    invalid_arg (Printf.sprintf "Dict.to_string: unknown id %d" id);
  Strpool.get d.strings id

let force d id s =
  if id < Strpool.length d.strings then begin
    let cur = Strpool.get d.strings id in
    if cur = "" && not (Hashtbl.mem d.ids s) then begin
      Strpool.force_set d.strings id s;
      Hashtbl.add d.ids s id
    end
    else if not (String.equal cur s) then
      invalid_arg
        (Printf.sprintf "Dict.force: id %d holds %S, cannot hold %S" id cur s)
  end
  else begin
    Strpool.force_set d.strings id s;
    Hashtbl.add d.ids s id
  end

let cardinal d = Strpool.length d.strings

let iteri f d = Strpool.iteri f d.strings
