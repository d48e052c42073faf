(** Incremental CDCL sessions (facade over {!Cdcl.Session}).

    Engineering change at the solver level: a session keeps the CDCL
    solver's state — learnt clauses, variable activities, saved
    phases — across a stream of clause additions, so re-solving after
    a change starts from everything the previous solves discovered.
    Clause addition only strengthens the formula, so retained learnt
    clauses remain implied and the session stays sound; clause
    {e removal} invalidates learnts, which is exactly why the paper's
    fast-EC path (re-solve a fresh cone) exists — the two mechanisms
    are complementary, and the bench harness compares them.

    Variables may grow: {!add_clause} accepts literals above the
    current count and extends the session (with capacity headroom; an
    occasional internal rebuild is transparent). *)

type t

val create : ?options:Cdcl.options -> Ec_cnf.Formula.t -> t

val num_vars : t -> int

val add_clause : t -> Ec_cnf.Clause.t -> unit
(** Post one clause; the session backtracks to its root level first. *)

val add_clauses : t -> Ec_cnf.Clause.t list -> unit

val solve :
  ?assumptions:Ec_cnf.Lit.t list -> ?budget:Ec_util.Budget.t -> t -> Outcome.t
(** Satisfiability of everything posted so far, under assumptions.
    After an unconditional [Unsat] (without assumptions, or a conflict
    the assumptions play no part in) the session is permanently
    unsatisfiable and keeps answering [Unsat].  [budget] caps this
    call only (intersected with the session options' budget); running
    out answers [Unknown], and the session remains usable.  This is
    the serve daemon's per-request watchdog hook.
    @raise Invalid_argument naming the literal if an assumption is 0 or
    its variable is above {!num_vars} (the variables posted so far),
    before anything is solved or counted. *)

type core_response = Cdcl.Session.core_response = {
  outcome : Outcome.t;
  core : Ec_cnf.Lit.t list;
      (** on [Unsat] under assumptions: a subset of the assumptions the
          formula refutes (failed assumption included); empty
          otherwise, and on unconditional [Unsat] *)
  counters : Ec_util.Budget.counters;  (** this call's spend *)
}

val solve_with_core :
  ?assumptions:Ec_cnf.Lit.t list -> ?budget:Ec_util.Budget.t -> t -> core_response
(** {!solve} plus the failed-assumption core (final-conflict analysis)
    and per-call counters.  This is the incremental query a
    core-guided MaxSAT loop iterates: each [Unsat] core names the soft
    assumptions to relax, and the session keeps its learnt clauses and
    activities across the calls.
    @raise Invalid_argument as {!solve}. *)

val solve_count : t -> int
(** Number of [solve] calls so far (instrumentation). *)
