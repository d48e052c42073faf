(** Independent certification of engine answers.

    The EC premise is that solutions must survive change (§5, §6); a
    corrupted or buggy engine answer propagating through
    {!Backend.solve_response} and {!Flow.apply_change_response} would be
    exactly the silent wrong answer the flow exists to prevent.  This
    module re-validates every positive answer with checks that are
    {e independent} of the engine that produced it and O(answer +
    formula) — never an extra solve:

    - a SAT model is re-checked clause by clause ({!check_model});
    - an ILP point is re-checked row by row with the objective
      recomputed from scratch ({!check_solution});
    - an UNSAT verdict, which has no feasible O(formula) certificate,
      is at least cross-examined against any satisfying witness the
      caller already holds — the previous solution in the EC flow
      ({!refutes_unsat}).

    A failed certificate never becomes a wrong answer: callers demote
    it to [Unknown (Engine_failure _)] ({!Ec_util.Budget.reason}) and
    fall back to another engine or strategy. *)

val check_model : Ec_cnf.Formula.t -> Ec_cnf.Assignment.t -> (unit, string) result
(** Does the assignment cover the formula's variable range and satisfy
    every clause (DC-aware)?  [Error msg] names the first violated
    clause.  O(formula). *)

val check_solution :
  ?eps:float -> Ec_ilp.Model.t -> Ec_ilp.Solution.t -> (unit, string) result
(** For an [Optimal]/[Feasible] solution: the point has the model's
    arity, satisfies every row and bound ({!Ec_ilp.Validate.check}),
    and the reported objective matches a from-scratch recomputation
    (relative tolerance [eps], default 1e-6).  Verdicts without a
    point ([Infeasible]/[Unknown]) pass vacuously. *)

val check_maxsat :
  Ec_cnf.Formula.t -> Ec_sat.Maxsat.result -> (unit, string) result
(** Independent re-validation of a core-guided MaxSAT result against
    the hard formula: any returned model passes {!check_model} and its
    claimed cost matches a from-scratch recount over the soft literals
    ({!Ec_sat.Maxsat.cost_of}); an [Optimum] cost must equal the proved
    lower bound, an incumbent must not beat it; the lower bound must
    equal the number of extracted cores, and every literal of each
    core must be a legitimate assumption — a soft literal, or a
    negated relaxation-bound output over an auxiliary variable the
    engine reports — and no core may be empty.  O(answer + formula),
    never an extra solve. *)

val refutes_unsat : Ec_cnf.Formula.t -> witness:Ec_cnf.Assignment.t -> bool
(** [true] when [witness] (DC-extended to the formula's range if
    shorter) satisfies the formula — proof that a claimed UNSAT is
    wrong.  [false] means "could not refute", not "UNSAT is right". *)

val outcome :
  engine:string ->
  ?witness:Ec_cnf.Assignment.t ->
  Ec_cnf.Formula.t ->
  Ec_sat.Outcome.t ->
  Ec_sat.Outcome.t
(** The demotion point: a [Sat] model failing {!check_model}, or an
    [Unsat] refuted by [witness], becomes
    [Unknown (Engine_failure (engine, detail))]; everything else is
    returned unchanged. *)
