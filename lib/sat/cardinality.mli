(** CNF cardinality constraints (sequential-counter encoding).

    Preserving EC at CDCL scale needs "at most k of these literals are
    true" as clauses: the optimal preservation count is then found by
    searching over k.  The sequential counter (Sinz 2005) is
    arc-consistent under unit propagation and linear in [n·k]. *)

type encoded = {
  clauses : Ec_cnf.Clause.t list;
  next_var : int;  (** first variable id not used by the encoding *)
}

val at_most : next_var:int -> Ec_cnf.Lit.t list -> int -> encoded
(** [at_most ~next_var lits k] returns clauses over the input literals
    and fresh auxiliary variables [next_var, ...] enforcing that at
    most [k] of [lits] are true.
    @raise Invalid_argument if [k < 0] or [next_var] collides with a
    literal's variable. *)

val at_least : next_var:int -> Ec_cnf.Lit.t list -> int -> encoded
(** At least [k] true, via [at_most] on the negated literals. *)

val exactly : next_var:int -> Ec_cnf.Lit.t list -> int -> encoded
(** Conjunction of {!at_most} and {!at_least}. *)

(** {2 Reusable counter}

    Encode once, tighten per probe: a bound search that re-encoded the
    counter at every candidate [k] (the historical binary-search path)
    pays O(n·k) fresh clauses per probe and forfeits everything a
    previous probe learnt.  A [reusable] counter is built a single
    time up to a capacity and every bound below it is selected by one
    literal: assume [negate (bound_lit r k)] in an incremental session
    so the same clause database (and its learnt clauses) serves every
    probe. *)

type reusable = {
  r_clauses : Ec_cnf.Clause.t list;  (** the counter, built once *)
  r_next_var : int;  (** first variable id not used by the encoding *)
  r_outputs : Ec_cnf.Lit.t array;
      (** [r_outputs.(j)] is propagation-complete for "at least [j+1]
          inputs are true" *)
}

val counter : next_var:int -> Ec_cnf.Lit.t list -> int -> reusable
(** [counter ~next_var lits cap] builds the sequential counter over
    [lits] with outputs for counts [1 .. cap].  Empty ([r_outputs =
    \[||\]]) when [lits] is empty or [cap = 0].
    @raise Invalid_argument on a negative capacity or a [next_var]
    collision. *)

val capacity : reusable -> int
(** Number of selectable bounds: {!bound_lit} accepts [0 .. capacity - 1]. *)

val bound_lit : reusable -> int -> Ec_cnf.Lit.t
(** [bound_lit r k]: true (by propagation) whenever more than [k]
    inputs are true; assuming its negation enforces at-most-[k].
    @raise Invalid_argument if [k] is outside the built capacity. *)
