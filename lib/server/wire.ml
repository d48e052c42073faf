module Json = Ec_util.Json

type op =
  | Create_session of {
      dimacs : string option;
      num_vars : int option;
      clauses : int list list option;
    }
  | Solve of { deadline_ms : int option }
  | Add_clauses of int list list
  | Remove_vars of int list
  | Pin of int list
  | Query
  | Close
  | Health
  | Shutdown

type request = {
  req_id : Json.t;
  req_session : string option;
  req_op : op;
}

let op_name = function
  | Create_session _ -> "create-session"
  | Solve _ -> "solve"
  | Add_clauses _ -> "add-clauses"
  | Remove_vars _ -> "remove-vars"
  | Pin _ -> "pin"
  | Query -> "query"
  | Close -> "close"
  | Health -> "health"
  | Shutdown -> "shutdown"

(* ---- request decoding ------------------------------------------- *)

let ( let* ) = Result.bind

let int_list field j =
  match Json.to_list_opt j with
  | None -> Error (Printf.sprintf "%S must be an array of integers" field)
  | Some xs ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
        match Json.to_int_opt x with
        | Some i -> go (i :: acc) rest
        | None -> Error (Printf.sprintf "%S must contain only integers" field))
    in
    go [] xs

let lit_list field j =
  let* lits = int_list field j in
  if List.exists (fun l -> l = 0) lits then
    Error (Printf.sprintf "%S contains literal 0 (DIMACS literals are non-zero)" field)
  else Ok lits

let clause_list field j =
  match Json.to_list_opt j with
  | None -> Error (Printf.sprintf "%S must be an array of clauses" field)
  | Some xs ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest ->
        let* c = lit_list field x in
        go (c :: acc) rest
    in
    go [] xs

let var_list field j =
  let* vars = int_list field j in
  if List.exists (fun v -> v < 1) vars then
    Error (Printf.sprintf "%S contains a non-positive variable" field)
  else Ok vars

let decode_op obj op =
  match op with
  | "create-session" ->
    let dimacs =
      Option.bind (Json.member "dimacs" obj) Json.to_string_opt
    in
    let num_vars = Option.bind (Json.member "num_vars" obj) Json.to_int_opt in
    let* clauses =
      match Json.member "clauses" obj with
      | None -> Ok None
      | Some j ->
        let* cs = clause_list "clauses" j in
        Ok (Some cs)
    in
    if dimacs = None && clauses = None then
      Error "create-session needs \"dimacs\" or \"clauses\""
    else Ok (Create_session { dimacs; num_vars; clauses })
  | "solve" ->
    let deadline_ms = Option.bind (Json.member "deadline_ms" obj) Json.to_int_opt in
    (match deadline_ms with
    | Some d when d < 1 -> Error "\"deadline_ms\" must be >= 1"
    | _ -> Ok (Solve { deadline_ms }))
  | "add-clauses" -> (
    match Json.member "clauses" obj with
    | None -> Error "add-clauses needs \"clauses\""
    | Some j ->
      let* cs = clause_list "clauses" j in
      Ok (Add_clauses cs))
  | "remove-vars" -> (
    match Json.member "vars" obj with
    | None -> Error "remove-vars needs \"vars\""
    | Some j ->
      let* vs = var_list "vars" j in
      Ok (Remove_vars vs))
  | "pin" -> (
    match Json.member "lits" obj with
    | None -> Error "pin needs \"lits\" (an empty array clears the pins)"
    | Some j ->
      let* ls = lit_list "lits" j in
      Ok (Pin ls))
  | "query" -> Ok Query
  | "close" -> Ok Close
  | "health" -> Ok Health
  | "shutdown" -> Ok Shutdown
  | other ->
    Error
      (Printf.sprintf
         "unknown op %S (create-session|solve|add-clauses|remove-vars|pin|query|close|health|shutdown)"
         other)

type reject = {
  rej_id : Json.t;
  rej_session : string option;
  rej_msg : string;
}

let parse_request line =
  let anon msg = Error { rej_id = Json.Null; rej_session = None; rej_msg = msg } in
  match Json.parse line with
  | Error msg -> anon ("parse: " ^ msg)
  | Ok (Json.Obj _ as obj) -> (
    (* id and session are pulled before op decoding so even a rejected
       request's error can be correlated by the client *)
    let req_id = Option.value (Json.member "id" obj) ~default:Json.Null in
    let req_session = Option.bind (Json.member "session" obj) Json.to_string_opt in
    let reject msg =
      Error { rej_id = req_id; rej_session = req_session; rej_msg = msg }
    in
    match Option.bind (Json.member "op" obj) Json.to_string_opt with
    | None -> reject "request needs a string \"op\" field"
    | Some op -> (
      match decode_op obj op with
      | Error msg -> reject msg
      | Ok req_op -> (
        (* session-scoped ops must name their session *)
        match req_op with
        | Health | Shutdown -> Ok { req_id; req_session; req_op }
        | _ when req_session = None ->
          reject (Printf.sprintf "op %S needs a \"session\" field" op)
        | _ -> Ok { req_id; req_session; req_op })))
  | Ok _ -> anon "request must be a JSON object"

(* ---- responses -------------------------------------------------- *)

(* Field order is part of the wire contract: id, session, status,
   then op-specific fields — identical answers render byte-identical,
   which the chaos containment test relies on. *)
let render ?session ~id ~status fields =
  let base =
    [ ("id", id) ]
    @ (match session with None -> [] | Some s -> [ ("session", Json.String s) ])
    @ [ ("status", Json.String status) ]
  in
  Json.to_string (Json.Obj (base @ fields))

let ok ?session ~id fields = render ?session ~id ~status:"ok" fields

let error ?session ~id msg =
  render ?session ~id ~status:"error" [ ("error", Json.String msg) ]

let overloaded ?session ~id ~retry_after_ms () =
  render ?session ~id ~status:"overloaded"
    [ ("retry_after_ms", Json.Int retry_after_ms) ]

let degraded_fields ~degraded ~retried =
  (if degraded then [ ("degraded", Json.Bool true) ] else [])
  @ if retried then [ ("retried", Json.Bool true) ] else []

let sat ?session ~id ~model ~certified ~degraded ~retried () =
  let lits =
    Ec_cnf.Assignment.to_list model
    |> List.filter_map (fun (v, value) ->
           match (value : Ec_cnf.Assignment.value) with
           | Ec_cnf.Assignment.True -> Some (Json.Int v)
           | Ec_cnf.Assignment.False -> Some (Json.Int (-v))
           | Ec_cnf.Assignment.Dc -> None)
  in
  render ?session ~id ~status:"sat"
    ([ ("model", Json.List lits); ("certified", Json.Bool certified) ]
    @ degraded_fields ~degraded ~retried)

let unsat ?session ~id ~degraded () =
  render ?session ~id ~status:"unsat" (degraded_fields ~degraded ~retried:false)

let unknown ?session ~id ~reason ~degraded () =
  render ?session ~id ~status:"unknown"
    (("reason", Json.String reason) :: degraded_fields ~degraded ~retried:false)
