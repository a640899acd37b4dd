open Column

type pool = Ptext | Pcomment | Ppi_target | Ppi_data | Dqn | Dprop

type t = {
  qn : Dict.t;
  props : Dict.t;
  text : Strpool.t;
  comment : Strpool.t;
  pi_target : Strpool.t;
  pi_data : Strpool.t;
  mu : Mutex.t;
      (* [Dict] probes go through a [Hashtbl], which tolerates neither a
         concurrent resize nor a read during a write: snapshot readers probe
         on any domain while writers intern, so probes lock too (one hash
         probe; contention is negligible next to evaluation) *)
}

let make qn props text comment pi_target pi_data =
  { qn; props; text; comment; pi_target; pi_data; mu = Mutex.create () }

let create () =
  make (Dict.create ()) (Dict.create ()) (Strpool.create ()) (Strpool.create ())
    (Strpool.create ()) (Strpool.create ())

let strpool t = function
  | Ptext -> t.text
  | Pcomment -> t.comment
  | Ppi_target -> t.pi_target
  | Ppi_data -> t.pi_data
  | Dqn | Dprop -> invalid_arg "Values.strpool: a dictionary"

(* Callers hold the mutex. *)
let add t pool s =
  match pool with
  | Dqn -> Dict.intern t.qn s
  | Dprop -> Dict.intern t.props s
  | Ptext | Pcomment | Ppi_target | Ppi_data -> Strpool.push (strpool t pool) s

let intern t pool s = Mutex.protect t.mu (fun () -> add t pool s)

let no_log _ _ _ = ()

let encode t ?(log = no_log) payload ~attr =
  let put pool s =
    let id = add t pool s in
    log pool id s;
    id
  in
  Mutex.protect t.mu (fun () ->
      match payload with
      | Shred.El (q, attrs) ->
        let qid = put Dqn (Xml.Qname.to_string q) in
        List.iter
          (fun (aq, av) ->
            let qn = put Dqn (Xml.Qname.to_string aq) in
            attr ~qn ~prop:(put Dprop av))
          attrs;
        (Kind.Element, qid)
      | Shred.Tx s -> (Kind.Text, put Ptext s)
      | Shred.Cm s -> (Kind.Comment, put Pcomment s)
      | Shred.Pr (target, data) ->
        let r = put Ppi_target target in
        let r' = put Ppi_data data in
        assert (r = r');
        (Kind.Pi, r))

let get t pool id =
  match pool with
  | Dqn -> Dict.to_string t.qn id
  | Dprop -> Dict.to_string t.props id
  | Ptext | Pcomment | Ppi_target | Ppi_data -> Strpool.get (strpool t pool) id

let length t pool =
  match pool with
  | Dqn -> Dict.cardinal t.qn
  | Dprop -> Dict.cardinal t.props
  | Ptext | Pcomment | Ppi_target | Ppi_data -> Strpool.length (strpool t pool)

let qname t kind r =
  match kind with
  | Kind.Element -> Xml.Qname.of_string (Dict.to_string t.qn r)
  | Kind.Text | Kind.Comment | Kind.Pi -> invalid_arg "Values.qname: not an element"

let content t kind r =
  match kind with
  | Kind.Text -> Strpool.get t.text r
  | Kind.Comment -> Strpool.get t.comment r
  | Kind.Pi -> Strpool.get t.pi_data r
  | Kind.Element -> invalid_arg "Values.content: element node"

let pi_target t kind r =
  match kind with
  | Kind.Pi -> Strpool.get t.pi_target r
  | Kind.Element | Kind.Text | Kind.Comment -> invalid_arg "Values.pi_target: not a PI"

let attribute t ~qn ~prop =
  (Xml.Qname.of_string (Dict.to_string t.qn qn), Dict.to_string t.props prop)

let qn_id_unlocked t q = Dict.find_opt t.qn (Xml.Qname.to_string q)

let qn_id t q = Mutex.protect t.mu (fun () -> qn_id_unlocked t q)

(* A live commit replays its own appends while other transactions append
   and probe, so replay locks like an append. *)
let force t pool id s =
  Mutex.protect t.mu (fun () ->
      match pool with
      | Dqn -> Dict.force t.qn id s
      | Dprop -> Dict.force t.props id s
      | Ptext | Pcomment | Ppi_target | Ppi_data ->
        Strpool.force_set (strpool t pool) id s)

let pools t = [ t.text; t.comment; t.pi_target; t.pi_data ]

let save t enc =
  Persist.Enc.dict enc t.qn;
  Persist.Enc.dict enc t.props;
  List.iter (Persist.Enc.strpool enc) (pools t)

let load dec =
  let open Persist.Dec in
  let qn = dict dec in
  let props = dict dec in
  let text = strpool dec in
  let comment = strpool dec in
  let pi_target = strpool dec in
  make qn props text comment pi_target (strpool dec)

let approx_bytes t =
  let b = ref 0 in
  let count per _ s = b := !b + String.length s + per in
  Dict.iteri (count 16) t.qn;
  Dict.iteri (count 16) t.props;
  List.iter (Strpool.iteri (count 8)) (pools t);
  !b
