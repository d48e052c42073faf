(** Shared result type of the SAT engines. *)

type t =
  | Sat of Ec_cnf.Assignment.t
  | Unsat
  | Unknown of Ec_util.Budget.reason
      (** why the engine stopped without an answer: a budget dimension
          ran out, the solve was cancelled, or — for incomplete engines
          and undecodable encodings — [Completed] without a verdict *)

val is_sat : t -> bool

val corrupt : Ec_util.Rng.t -> t -> t
(** Flip one variable of a [Sat] model (True ↔ False, DC → True);
    other outcomes unchanged.  Target of the [*.answer] failpoints'
    [Corrupt_model] action ({!Ec_util.Fault}) — what a memory fault or
    a decode bug in an engine would look like from outside. *)

val forge_unsat : t -> t
(** Replace a [Sat] answer with [Unsat]; the forged-verdict fault. *)

val to_string : t -> string
