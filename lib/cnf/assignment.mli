(** Truth assignments with don't-cares.

    The paper's set-cover encoding selects at most one phase per
    variable and minimizes the number of selected phases, so a variable
    may legitimately end up with {e no} phase — a don't-care (DC).
    Fast EC (§6) explicitly "recovers as many DC variables from the
    initial solution as possible", so DC is a first-class value here,
    not an error state. *)

type value = True | False | Dc

type t

val value_to_string : value -> string

val make : int -> t
(** All-DC assignment over [n] variables. *)

val init : int -> (int -> value) -> t
(** [init n f] assigns [f v] to each variable [v] in [1..n], calling
    [f] in ascending order, in one O(n) allocation.  Build a model with
    this, not by a loop of {!set}.
    @raise Invalid_argument if [n < 0]. *)

val of_list : int -> (int * bool) list -> t
(** [of_list n bindings] assigns each listed variable; unlisted
    variables are DC.
    @raise Invalid_argument on out-of-range variables or duplicate
    bindings with conflicting values. *)

val of_bool_list : bool list -> t
(** Total assignment: element [i] (0-based) is the value of variable
    [i+1]. *)

val num_vars : t -> int

val value : t -> int -> value
(** @raise Invalid_argument if the variable is out of range. *)

val set : t -> int -> value -> t
(** Functional update: copies the whole assignment, so it is O(n).
    A loop of [set] over n variables is O(n²); use {!init}. *)

val lit_true : t -> Lit.t -> bool
(** Is the literal satisfied?  DC literals are not satisfied. *)

val lit_false : t -> Lit.t -> bool
(** Is the literal falsified?  A DC literal is neither true nor
    false. *)

val clause_sat_count : t -> Clause.t -> int
(** Number of satisfied literals — the paper's "k" in k-satisfied. *)

val satisfies_clause : t -> Clause.t -> bool

val satisfies : t -> Formula.t -> bool
(** Does the assignment satisfy every clause? *)

val unsatisfied_clauses : t -> Formula.t -> int list
(** Indices of clauses not satisfied, in ascending order. *)

val assigned_vars : t -> int list
(** Variables with a non-DC value, ascending. *)

val dc_count : t -> int

val preserved_count : old_assignment:t -> t -> int
(** Number of variables whose value (including DC) matches between the
    old and new assignments — the quantity Table 3 reports as a
    percentage.  Compared over the smaller of the two variable
    ranges. *)

val preserved_fraction : old_assignment:t -> t -> float
(** [preserved_count] over the compared range size; 1.0 for empty
    ranges. *)

val extend : t -> int -> t
(** Grow to [n] variables, new variables DC.
    @raise Invalid_argument if shrinking. *)

val merge : base:t -> overlay:t -> t
(** [merge ~base ~overlay] takes [overlay]'s value for every variable
    assigned (non-DC) in [overlay] and [base]'s value elsewhere — the
    "combine p and new solution p'" step of Figure 2.  Ranges must
    agree.
    @raise Invalid_argument on range mismatch. *)

val merge_on : vars:int list -> base:t -> overlay:t -> t
(** Like {!merge} but only the listed variables are taken from
    [overlay] (even if DC there): exactly the variable set the fast-EC
    sub-instance re-solved. *)

val to_list : t -> (int * value) list

val equal : t -> t -> bool

val to_string : t -> string
(** Paper notation, e.g. ["{v1=0, v2=1, v3=*}"] with [*] for DC. *)
