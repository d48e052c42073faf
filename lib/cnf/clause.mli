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

val remove_var : int -> t -> t
(** The clause with every occurrence of the variable deleted; used by
    variable elimination.  Result may be empty. *)

val max_var : t -> int
(** 0 for the empty clause. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val to_string : t -> string
(** Paper notation, e.g. ["(v1 + ~v3 + ~v5)"]. *)

val to_dimacs : t -> string
(** Space-separated literals with the trailing 0. *)
