(** k-satisfiability and flip-support analysis (§5 of the paper).

    A clause is "k-satisfied" under an assignment when exactly [k] of
    its literals evaluate to true.  Enabling EC asks that every clause
    be at least 2-satisfied {e or} own a flip-supporting literal: a
    currently-false literal whose variable can flip without falsifying
    any other clause.  This module measures those properties of a
    concrete (formula, assignment) pair; the ILP encodings that
    {e impose} them live in [Ec_core.Enabling]. *)

val sat_count : Assignment.t -> Clause.t -> int
(** The "k" of k-satisfied. *)

val flip_breaks : Formula.t -> Assignment.t -> int -> int list
(** [flip_breaks f a v] lists the clauses that would become
    unsatisfied if variable [v] flipped to its opposite value.  For a
    DC variable no clause can break (giving it either value only adds
    satisfied literals), so the result is [[]]. *)

val flip_safe : Formula.t -> Assignment.t -> int -> bool
(** [flip_breaks] is empty. *)

val supporters : Formula.t -> Assignment.t -> Clause.t -> int list
(** Variables of currently-unsatisfied literals of the clause (false
    or DC — assigning a DC variable is a free support) whose flip
    would (a) satisfy this clause and (b) break no other clause —
    the paper's "support" variables (the Z of §5). *)

type report = {
  clauses_total : int;
  clauses_2sat : int;      (** at least 2-satisfied *)
  clauses_supported : int; (** exactly 1-satisfied but with flip support *)
  clauses_fragile : int;   (** exactly 1-satisfied, no support *)
  clauses_unsat : int;     (** 0-satisfied: the assignment is invalid *)
}

val analyze : Formula.t -> Assignment.t -> report

val enabled : Formula.t -> Assignment.t -> bool
(** [clauses_fragile = 0 && clauses_unsat = 0]: the solution has the
    §5 property for k = 2. *)

val flexibility : report -> float
(** Fraction of clauses that are 2-satisfied or supported; the scalar
    the enabling-EC objective maximizes.  1.0 when there are no
    clauses. *)

val tolerates_elimination : Formula.t -> Assignment.t -> int -> bool
(** The intro's acid test: after eliminating the variable, is every
    clause still satisfied, or repairable by flipping one {e other}
    variable that breaks nothing (in the eliminated formula)?  This is
    the property solution E of §1 has for every variable and solution S
    lacks. *)
