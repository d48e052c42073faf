(** 0-1 integer linear programming models (§3, equations (1)–(6)).

    A model is a mutable builder: declare variables, post constraints,
    set an objective, then freeze it and hand it to a solver.  Every
    variable is 0-1, as in all of the paper's formulations.

    Constraints are stored flat (compressed sparse rows): one start
    offset per constraint into two growing arrays of variable ids and
    coefficients, plus per-constraint arrays of relation, right-hand
    side, constant part and name.  Posting a constraint normalises its
    terms in place, and the result is exactly
    [Linexpr.terms (Linexpr.of_terms l)] of the posted list [l]:
    sorted by variable (stable), duplicates summed left to right, zero
    sums dropped.  A constraint posted without a name stores none;
    ["c<i>"] is formatted when {!constr_name} reads it. *)

type sense = Minimize | Maximize

type relation = Le | Ge | Eq

type t

val create : unit -> t

val add_var : ?name:string -> t -> int
(** Declares a 0-1 variable and returns its dense id (0-based). *)

val num_vars : t -> int

val var_name : t -> int -> string
(** The declared name, or ["x<i>"]. *)

val find_var : t -> string -> int
(** Look a variable up by declared name.
    @raise Not_found if absent. *)

val add_constr_terms :
  t -> ?name:string -> ?constant:float -> (float * int) list -> relation -> float -> unit
(** [add_constr_terms t terms relation rhs] posts
    [constant + Σ c·x relation rhs] over the raw [(c, x)] list
    (default constant 0), normalised in place as described above.
    The model is unchanged when it raises.
    @raise Invalid_argument ["Linexpr.of_terms: negative id"] if some
    id is negative, else if a variable left after normalisation is
    undeclared. *)

val add_constr : t -> ?name:string -> Linexpr.t -> relation -> float -> unit
(** Post [expr relation rhs]: {!add_constr_terms} on the expression's
    terms and constant.
    @raise Invalid_argument if the expression mentions undeclared
    variables. *)

val num_constrs : t -> int

(** {2 Reading constraints}

    Constraint ids are dense, in posting order.  The per-constraint
    readers raise [Invalid_argument] on unknown ids. *)

val constr_name : t -> int -> string
(** The posted name, or ["c<i>"]. *)

val constr_relation : t -> int -> relation

val constr_rhs : t -> int -> float

val constr_constant : t -> int -> float
(** The constant part of the left-hand side. *)

val constr_terms : t -> int -> (float * int) list
(** The normalised terms, ascending by variable. *)

val term_start : t -> int array
(** Constraint [i]'s terms sit at positions [term_start.(i)] to
    [term_start.(i + 1) - 1] of {!term_vars} and {!term_coeffs},
    for [i < num_constrs].  The three arrays may be longer than that
    (spare capacity); they are replaced when the model grows, so read
    them after the last post.  Callers must not mutate them. *)

val term_vars : t -> int array

val term_coeffs : t -> float array

val set_objective : t -> sense -> Linexpr.t -> unit
(** @raise Invalid_argument if the expression mentions undeclared
    variables. *)

val objective : t -> sense * Linexpr.t
(** Defaults to [Minimize 0] if never set. *)

val to_string : t -> string
(** LP-format-style listing for debugging and docs. *)
