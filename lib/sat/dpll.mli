(** Reference DPLL solver.

    A deliberately simple chronological-backtracking solver with unit
    propagation and pure-literal elimination.  It exists to cross-check
    the CDCL engine and the ILP path on small instances — three
    independent implementations answering the same satisfiability
    questions is the backbone of the test suite. *)

type options = {
  budget : Ec_util.Budget.t;
      (** search nodes draw on the [nodes] dimension; the deadline and
          cancellation flag are checked once per node *)
}

val default_options : options

val config : options Ec_util.Config.spec
(** Empty spec — the reference solver has no tunables — kept so dpll
    participates uniformly in the config plane (show/parse/digest). *)

type response = {
  outcome : Outcome.t;
  reason : Ec_util.Budget.reason;
  counters : Ec_util.Budget.counters;
}

val solve_response : ?options:options -> Ec_cnf.Formula.t -> response
(** A [Sat] model is total over the variables the search touched;
    variables never constrained come back as DC. *)
