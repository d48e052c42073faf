(** Reference DPLL solver — the test suite's oracle.

    A deliberately simple chronological-backtracking solver with unit
    propagation and pure-literal elimination.  It exists to cross-check
    the CDCL engine and the ILP path on small instances: independent
    implementations answering the same satisfiability questions are the
    backbone of the test suite.  It takes no budget and carries no
    failpoints; a test that needs either drives a real engine. *)

val solve : Ec_cnf.Formula.t -> Ec_sat.Outcome.t
(** [Sat] or [Unsat], never [Unknown].  A [Sat] model is total over the
    variables the search touched; variables never constrained come
    back as DC. *)
