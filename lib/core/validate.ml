module Sj = Staircase.Make (View)

type content = Any | Children_of of string list | Text_only | Empty

type rule = {
  content : content;
  required_attrs : string list;
  allowed_attrs : string list option;
}

type t = (string, rule) Hashtbl.t

let empty : t = Hashtbl.create 8

let add t name rule =
  let t' = Hashtbl.copy t in
  Hashtbl.replace t' name rule;
  t'

let of_rules rules =
  let t = Hashtbl.create (max 8 (List.length rules)) in
  List.iter (fun (name, r) -> Hashtbl.replace t name r) rules;
  t

let rule ?(content = Any) ?(required = []) ?allowed () =
  { content; required_attrs = required; allowed_attrs = allowed }

let check_element v pre r name =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let attrs = List.map (fun (q, _) -> Xml.Qname.to_string q) (View.attributes v pre) in
  let missing = List.filter (fun a -> not (List.mem a attrs)) r.required_attrs in
  if missing <> [] then
    err "<%s> at pre %d: missing required attribute(s) %s" name pre
      (String.concat ", " missing)
  else
    let extra =
      match r.allowed_attrs with
      | None -> []
      | Some allowed ->
        List.filter
          (fun a -> not (List.mem a allowed || List.mem a r.required_attrs))
          attrs
    in
    if extra <> [] then
      err "<%s> at pre %d: attribute(s) not allowed: %s" name pre
        (String.concat ", " extra)
    else
      let kids = Sj.children v [ pre ] in
      let check_kid ok kid =
        match ok with
        | Error _ -> ok
        | Ok () -> (
          match r.content, View.kind v kid with
          | Any, _ -> Ok ()
          | Empty, _ -> err "<%s> at pre %d: must be empty" name pre
          | Text_only, (Kind.Text | Kind.Comment | Kind.Pi) -> Ok ()
          | Text_only, Kind.Element ->
            err "<%s> at pre %d: element children not allowed" name pre
          | Children_of _, (Kind.Comment | Kind.Pi) -> Ok ()
          | Children_of _, Kind.Text ->
            err "<%s> at pre %d: text content not allowed" name pre
          | Children_of names, Kind.Element ->
            let kname = Xml.Qname.to_string (View.qname v kid) in
            if List.mem kname names then Ok ()
            else err "<%s> at pre %d: child <%s> not allowed" name pre kname)
      in
      List.fold_left check_kid (Ok ()) kids

let check_view t v =
  Sj.fold_used v ~test:(Of_kind (Kind.to_int Kind.Element)) ~lo:0
    ~hi:(View.extent v) ~init:(Ok ()) (fun acc r i ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        let pre = Storage_intf.run_pre r i in
        let name = Xml.Qname.to_string (View.qname v pre) in
        match Hashtbl.find_opt t name with
        | None -> acc
        | Some rule -> check_element v pre rule name))

let checker t v = check_view t v
