(** Clauses: duplicate-free disjunctions of literals.

    Construction normalizes (sorts by variable, removes duplicate
    literals) and detects tautologies.  The empty clause is
    representable — it arises naturally when variable elimination
    removes every literal — and is unsatisfiable. *)

type t

exception Tautology
(** Raised by {!make} when a clause contains both phases of a
    variable. *)

val make : Lit.t list -> t
(** Normalized clause from literals.
    @raise Tautology if some variable occurs in both phases. *)

val make_opt : Lit.t list -> t option
(** [None] instead of raising on tautologies. *)

val of_sorted : Lit.t array -> t
(** The clause of an array already in normal form: variables strictly
    ascending, hence no duplicate and no tautology.  O(size), no sort;
    the clause is the array itself, so callers must not mutate it
    afterwards.
    @raise Invalid_argument if the variables are not strictly
    ascending or a literal is 0. *)

val lits : t -> Lit.t array
(** The literals; callers must not mutate the result. *)

val size : t -> int

val is_empty : t -> bool

val mem : Lit.t -> t -> bool

val mem_var : int -> t -> bool
(** Does the variable occur, in either phase? *)

val exists : (Lit.t -> bool) -> t -> bool

val for_all : (Lit.t -> bool) -> t -> bool

val fold : ('acc -> Lit.t -> 'acc) -> 'acc -> t -> 'acc

val iter : (Lit.t -> unit) -> t -> unit

val filter : (Lit.t -> bool) -> t -> t
(** The literals satisfying the predicate, in order, so the result is
    normalized too; the clause itself when every literal is kept.
    Variable elimination deletes a variable's literals with it.  Result
    may be empty. *)

val max_var : t -> int
(** The variable of the last literal, in O(1); 0 for the empty
    clause. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val to_string : t -> string
(** Paper notation, e.g. ["(v1 + ~v3 + ~v5)"]. *)

val to_dimacs : t -> string
(** Space-separated literals with the trailing 0. *)
