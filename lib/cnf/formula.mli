(** CNF formulas.

    A formula is an immutable pair of a variable count and a clause
    array.  Variables are numbered [1 .. num_vars]; a formula may
    mention fewer variables than [num_vars] (e.g. after a variable is
    added as an engineering change, or eliminated).  All mutation-style
    operations return fresh formulas, so the EC flow can keep the
    original and modified instances side by side.

    {2 Occurrence index}

    Occurrence queries read a compressed index: one start offset per
    literal into one flat array of clause indices, each literal's run
    ascending.  A formula made by {!create}, {!of_array} or
    {!of_lists} builds its own index at its first query.  A formula
    made by {!add_clauses}, {!remove_clauses}, {!eliminate_vars} or
    {!add_var} shares the index of the formula it came from (its root)
    instead: it records the root, the root clauses it removed (sorted),
    the length of the clause prefix it shares with the root, and the
    variables it eliminated.  It answers a query from the root's index,
    minus the eliminated variables, skipping the removed clauses and
    shifting later ones down, plus a scan of its own appended clauses.
    Once those scans and skips have cost more than one index build, it
    builds its own index, so queries stay amortized O(formula); a
    formula with its own index is the root of what is derived from it,
    and chains stay one level deep: a removal from a derived formula is
    recorded against the same root.  A base formula's index is
    therefore built once however many changes are applied to it.

    The index and the scan count are filled in lazily, so pool domains
    that share a formula may race on them.  The race is benign: each
    write stores a complete value, and a query answers the same from
    either state. *)

type t

val create : num_vars:int -> Clause.t list -> t
(** @raise Invalid_argument if a clause mentions a variable above
    [num_vars] or if [num_vars < 0]. *)

val of_array : num_vars:int -> Clause.t array -> t
(** {!create} over an array, which the formula takes as its own: the
    caller must not mutate it afterwards.
    @raise Invalid_argument as {!create}. *)

val of_lists : num_vars:int -> Lit.t list list -> t
(** Convenience wrapper: build clauses with {!Clause.make}.
    Tautological input clauses are dropped (they constrain nothing). *)

val num_vars : t -> int

val num_clauses : t -> int

val clause : t -> int -> Clause.t
(** Clause by index.
    @raise Invalid_argument out of bounds. *)

val clauses : t -> Clause.t array
(** All clauses; callers must not mutate the result. *)

val iteri : (int -> Clause.t -> unit) -> t -> unit

val fold : ('acc -> Clause.t -> 'acc) -> 'acc -> t -> 'acc

val has_empty_clause : t -> bool
(** An empty clause makes the formula trivially unsatisfiable. *)

val iter_occurrences : (int -> unit) -> t -> Lit.t -> unit
(** Calls the function on the index of each clause containing the
    literal (exact phase), in ascending order. *)

val count_occurrences : t -> Lit.t -> int
(** Number of clauses containing the literal (exact phase). *)

val occurrences : t -> Lit.t -> int list
(** Indices of the clauses containing the literal (exact phase),
    ascending. *)

val var_occurrences : t -> int -> int list
(** Indices of clauses containing either phase of the variable,
    ascending and duplicate-free. *)

val add_clause : t -> Clause.t -> t
(** Append one clause (engineering change: new constraint).
    Variables above [num_vars] are accommodated by growing the
    variable count. *)

val add_clauses : t -> Clause.t list -> t
(** Append the clauses in order, with one copy of the clause array. *)

val remove_clause : t -> int -> t
(** Drop the clause at an index (engineering change: constraint
    deleted).  Later clauses shift down by one.
    @raise Invalid_argument out of bounds. *)

val remove_clauses : t -> int list -> t
(** Drop the clauses at the indices in order, each index counting the
    clauses the earlier ones left, with one copy of the clause array.
    The result, and any exception, is that of folding
    {!remove_clause} over the indices.
    @raise Invalid_argument if some index is out of bounds when it is
    reached. *)

val add_var : t -> t
(** Grow the variable count by one; the new variable is unconstrained
    (a don't-care for any existing solution). *)

val eliminate_var : t -> int -> t
(** The paper's "variable elimination" change: every occurrence of the
    variable is deleted from every clause; the variable count is
    unchanged (the variable becomes unconstrained).  Clauses may become
    empty, making the instance unsatisfiable — callers decide how to
    react.
    @raise Invalid_argument if the variable is out of range. *)

val eliminate_vars : t -> int list -> t
(** [eliminate_vars t vs] is [t] with each variable of [vs] eliminated
    as by {!eliminate_var}, in one copy of the clause array that
    rewrites only the clauses the index lists for those variables.
    The result equals the left fold of {!eliminate_var} over [vs].
    @raise Invalid_argument if some variable is out of range. *)

val vars_used : t -> int list
(** Sorted list of variables with at least one occurrence. *)

val equal : t -> t -> bool
(** Structural equality of variable counts and clause sequences. *)

val to_string : t -> string
(** Paper notation: concatenated clause strings. *)
