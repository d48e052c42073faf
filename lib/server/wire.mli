(** Wire protocol of the [ecsat serve] daemon.

    One JSON object per line ("JSONL"); every request carries an [op],
    an optional [id] (echoed verbatim in the response — clients match
    responses to requests by it, since sessions complete out of order
    relative to each other) and, for session-scoped operations, the
    [session] name.  See DESIGN.md §11 for the full grammar and the
    failure-mode table.

    Parsing is total: any malformed line becomes [Error msg], which
    the server answers with a structured [status = "error"] response —
    never a dead loop, never a crash. *)

type op =
  | Create_session of {
      dimacs : string option;       (** DIMACS text, or... *)
      num_vars : int option;        (** ...an explicit clause list *)
      clauses : int list list option;
    }
  | Solve of { deadline_ms : int option }
      (** per-request watchdog deadline; the server default applies
          when absent *)
  | Add_clauses of int list list
  | Remove_vars of int list
  | Pin of int list
      (** replace the session's pinned literals (assumptions applied
          to every solve); an empty list clears them *)
  | Query
  | Close
  | Health
  | Shutdown

type request = {
  req_id : Ec_util.Json.t;              (** echoed verbatim; [Null] if absent *)
  req_session : string option;
  req_op : op;
}

val op_name : op -> string
(** The wire spelling (["create-session"], ["solve"], ...). *)

(** A rejected request.  Whenever the line parsed far enough to carry
    an [id]/[session], they ride along so the client can correlate the
    error response; a document-level failure leaves them [Null]/absent. *)
type reject = {
  rej_id : Ec_util.Json.t;
  rej_session : string option;
  rej_msg : string;
}

val parse_request : string -> (request, reject) result
(** Decode one line.  Rejects non-object documents, unknown ops,
    missing/ill-typed payloads, zero literals and non-positive
    variables — each with a message naming the offense. *)

(** {2 Responses} — every constructor renders one JSON line.  Field
    order is fixed, so identical answers are byte-identical. *)

val ok : ?session:string -> id:Ec_util.Json.t -> (string * Ec_util.Json.t) list -> string
(** [{"id":...,"session":...,"status":"ok",<extra fields>}] — the
    generic success answer (create/add/remove/pin/close/health). *)

val error : ?session:string -> id:Ec_util.Json.t -> string -> string
(** ["status":"error"] with the reason — rejects and per-request
    failures; the connection stays up. *)

val overloaded :
  ?session:string -> id:Ec_util.Json.t -> retry_after_ms:int -> unit -> string
(** ["status":"overloaded"] — backpressure shed at enqueue time, with
    the deterministic retry hint. *)

val sat :
  ?session:string ->
  id:Ec_util.Json.t ->
  model:Ec_cnf.Assignment.t ->
  certified:bool ->
  degraded:bool ->
  retried:bool ->
  unit ->
  string
(** The model is rendered as signed DIMACS literals of the assigned
    variables, ascending; don't-cares are omitted. *)

val unsat : ?session:string -> id:Ec_util.Json.t -> degraded:bool -> unit -> string
(** ["status":"unsat"] (under the session's pins, if any). *)

val unknown :
  ?session:string -> id:Ec_util.Json.t -> reason:string -> degraded:bool -> unit -> string
(** ["status":"unknown"] with the structured stop reason (deadline,
    budget, engine-failure containment). *)
