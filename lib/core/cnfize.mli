(** CNF translation of clause-like 0-1 models.

    Every model this project builds — set-cover rows, exclusion rows,
    the §5 support and flexibility rows, §7 pins — has only ±1
    coefficients and integral bounds.  Such rows are cardinality
    constraints over literals, so the whole model translates exactly to
    CNF through the sequential-counter encoder, and the CDCL engine
    becomes a full decision backend for it (the route that lets
    enabling-EC models run at paper scale).

    [Σ_{i∈P} xi − Σ_{j∈N} xj ≤ b] over binaries is
    "at most [b + |N|] of [{xi} ∪ {¬xj}] are true".

    The objective is not translated (CNF is a decision language);
    callers optimize by search on top, as {!Preserving} does. *)

type t = {
  formula : Ec_cnf.Formula.t;
  model_vars : int;  (** CNF variables [1 .. model_vars] mirror model
                         ids [0 .. model_vars-1]; higher CNF variables
                         are encoding auxiliaries *)
}

exception Unsupported of string
(** A row with a non-unit coefficient or non-integral bound. *)

val of_model : Ec_ilp.Model.t -> t
(** @raise Unsupported on rows outside the ±1 fragment. *)

val point_of_assignment : t -> Ec_cnf.Assignment.t -> float array
(** Decode a CNF model to a 0-1 point over the model variables.
    Don't-care variables decode to 0, which is always a valid
    completion of a satisfying CNF assignment. *)

val supported : Ec_ilp.Model.t -> bool
(** Would {!of_model} succeed? *)
