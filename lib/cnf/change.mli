(** The engineering-change model (§4–§7 protocols).

    A change edits a specification: clauses are added or deleted,
    variables are added or eliminated.  The paper splits these into the
    {e loosening} changes (add variable, delete clause) that never
    invalidate a solution, and the {e tightening} changes (eliminate
    variable, add clause) that may — fast EC and preserving EC exist
    for the latter.  This module applies individual changes, composes
    scripts of them, and generates the random change workloads used by
    Tables 2 and 3. *)

type t =
  | Add_clause of Clause.t
  | Remove_clause of int  (** index into the formula at application time *)
  | Add_var
  | Eliminate_var of int

val to_string : t -> string

val is_tightening : t -> bool
(** [Add_clause] and [Eliminate_var] tighten; the others loosen. *)

val apply : Formula.t -> t -> Formula.t
(** @raise Invalid_argument on out-of-range indices/variables. *)

val apply_script : Formula.t -> t list -> Formula.t
(** Left-to-right application; each change sees the formula produced
    by the previous ones.  Each run of consecutive [Eliminate_var]s,
    [Add_clause]s or [Remove_clause]s is applied in one pass; the
    result, and any exception, is that of folding {!apply} over the
    script. *)

val random_clause :
  Ec_util.Rng.t -> num_vars:int -> width:int -> Clause.t
(** A random clause of [width] distinct variables, random polarity.
    @raise Invalid_argument if [width > num_vars] or [width < 1]. *)

val random_clause_satisfied_by :
  Ec_util.Rng.t -> Assignment.t -> num_vars:int -> width:int -> Clause.t
(** A random clause guaranteed satisfied by the given assignment
    (at least one literal agrees with it); used when a protocol must
    keep the instance satisfiable.  Variables that are DC in the
    assignment are given their phase at random, so at least one
    non-DC variable is required.
    @raise Invalid_argument if the assignment is all-DC or width is
    out of range. *)

val fast_ec_script :
  Ec_util.Rng.t -> Formula.t -> eliminate:int -> add:int -> clause_width:int -> t list
(** The Table 2 workload: eliminate [eliminate] random distinct
    variables (among those actually used) then add [add] random
    clauses over the surviving variables. *)

val preserving_ec_script :
  ?satisfiable:(Formula.t -> bool) ->
  Ec_util.Rng.t ->
  Formula.t ->
  reference:Assignment.t ->
  add_vars:int ->
  del_vars:int ->
  add_clauses:int ->
  del_clauses:int ->
  clause_width:int ->
  t list
(** The Table 3 workload: add and eliminate variables, add and delete
    clauses, "making sure that we did not make the instance
    non-satisfiable" (the paper's wording).  With [satisfiable] (a
    solver callback) the changes are drawn freely and each tightening
    change is accepted only if the modified instance passes the check —
    so the {e instance} stays satisfiable while the old solution
    usually breaks, which is the case Table 3 measures.  Without the
    callback a constructive fallback anchors additions on [reference]
    (keeping it a model — preservation then tends to be total).
    Eliminated variables always leave every clause non-empty. *)
