(** Conflict-driven clause-learning SAT solver.

    The scalable backend of the reproduction (the paper's large
    instances run through it).  Standard modern architecture:

    - two-watched-literal propagation,
    - first-UIP conflict analysis with learnt-clause minimization,
    - exponential VSIDS branching with phase saving,
    - Luby-sequence restarts,
    - learnt-database reduction ranked by literal-block distance,
    - incremental solving under assumptions.

    Phase saving doubles as a cheap engineering-change device: seeding
    the saved phases with a previous solution biases the solver toward
    nearby models.  The [phase_hint] option exposes that, and the bench
    harness ablates it against the paper's optimal preserving EC.

    Only variables that some loaded clause mentions are decided.  An
    unmentioned variable takes its saved phase in the model: the
    [phase_hint] value, or false.  Deciding it would give it the same
    value, so models do not depend on this; what it saves is a
    decision per unmentioned variable — a fast-EC cone posted over all
    of a formula's variables, or a session's capacity headroom. *)

type options = {
  var_decay : float;        (** VSIDS decay, e.g. 0.95 *)
  restart_base : int;       (** conflicts per Luby unit, e.g. 100 *)
  budget : Ec_util.Budget.t;
      (** shared resource budget; conflicts and decisions ([nodes])
          draw on it, the deadline is checked on a coarse tick *)
  phase_hint : Ec_cnf.Assignment.t option;
      (** initial saved phases; DC variables default to false *)
  seed : int;               (** randomizes initial variable order slightly *)
}

val default_options : options

val config : options Ec_util.Config.spec
(** Tunable surface for the unified config plane: [var_decay],
    [restart_base], [seed].  The budget and [phase_hint] are per-solve
    runtime state and deliberately stay outside the spec. *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_clauses : int;
  deleted_clauses : int;
}

type response = {
  outcome : Outcome.t;
  reason : Ec_util.Budget.reason;
      (** [Completed] on a definitive answer, otherwise the budget
          dimension that cut the solve off *)
  stats : stats;
  counters : Ec_util.Budget.counters;
}

val solve_response :
  ?options:options -> ?assumptions:Ec_cnf.Lit.t list -> Ec_cnf.Formula.t ->
  response
(** Satisfiability of the formula under the assumptions.  [Sat]
    carries a total assignment over the formula's variables.  [Unsat]
    under assumptions means no model extends them (the formula itself
    may be satisfiable).
    @raise Invalid_argument naming the literal if an assumption is 0 or
    its variable is above the formula's [num_vars]. *)

(** Incremental sessions: keep learnt clauses, activities and phases
    across clause additions — engineering change at the solver level.
    {!Incremental} is the public face; this module lives here because
    it shares the solver's internals. *)
module Session : sig
  type t

  val create : ?options:options -> Ec_cnf.Formula.t -> t

  val num_vars : t -> int

  val add_clause : t -> Ec_cnf.Clause.t -> unit

  val add_clauses : t -> Ec_cnf.Clause.t list -> unit

  val solve : ?assumptions:Ec_cnf.Lit.t list -> ?budget:Ec_util.Budget.t -> t -> Outcome.t
  (** [budget] (if given) is intersected with the session options'
      budget for this call only — the per-request allowance of the
      serve daemon.  Its cancellation flag stays live, so a watchdog
      holding it can stop the solve cooperatively.
      @raise Invalid_argument naming the literal if an assumption is 0
      or its variable is above {!num_vars}, whatever capacity the
      session keeps beyond it; nothing is solved or counted then. *)

  type core_response = {
    outcome : Outcome.t;
    core : Ec_cnf.Lit.t list;
        (** on [Unsat] under assumptions: a subset of the assumptions
            whose conjunction the formula refutes (final-conflict
            analysis), the failed assumption included.  Empty on any
            other outcome, and on [Unsat] without assumptions — the
            formula itself is unsatisfiable. *)
    counters : Ec_util.Budget.counters;
        (** this call's spend (conflicts, decisions, wall clock),
            rebased from the session's cumulative counters *)
  }

  val solve_with_core :
    ?assumptions:Ec_cnf.Lit.t list -> ?budget:Ec_util.Budget.t -> t -> core_response
  (** {!solve} plus the failed-assumption core and per-call counters —
      the query the core-guided MaxSAT loop ({!Maxsat}) iterates.
      @raise Invalid_argument as {!solve}. *)

  val solve_count : t -> int
end
