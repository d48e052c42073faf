(** The generic ILP-based EC flow (paper §4, Figure 1).

    Original specification → (optionally) enabling EC → solver →
    initial solution; then a change script produces the new
    specification, re-solved by fast EC or preserving EC.  This module
    is the one-call orchestration used by the CLI and the examples;
    each stage is also available individually in
    {!Encode}/{!Enabling}/{!Fast_ec}/{!Preserving}. *)

type initial = {
  formula : Ec_cnf.Formula.t;
  assignment : Ec_cnf.Assignment.t;
  enabled : bool;          (** was enabling EC applied *)
  flexibility : float;     (** fraction of clauses 2-satisfied/supported *)
  solve_time_s : float;
}

val solve_initial :
  ?enable:Enabling.mode ->
  ?solver:Backend.t ->
  ?budget:Ec_util.Budget.t ->
  Ec_cnf.Formula.t ->
  initial option
(** Produce the initial solution ("non-EC solution", or "EC solution"
    when [enable] is given).  [solver] (default {!Backend.cdcl})
    answers either way: with [enable], it solves the enabling model
    through {!Backend.solve_model_response} (for [Cdcl], the model's
    clauses via {!Cnfize}), and the decoded assignment is re-certified
    against [formula].  [budget] caps the solve ({!Ec_util.Budget});
    running out is reported as [None], like unsatisfiability.  [None]
    when unsatisfiable. *)

type resolve_strategy =
  | Fast                      (** Figure 2 cone re-solve *)
  | Preserve of Preserving.engine
  | Full                      (** baseline: re-solve from scratch *)

type updated = {
  new_formula : Ec_cnf.Formula.t;
  new_assignment : Ec_cnf.Assignment.t;
  strategy : resolve_strategy;
  preserved_fraction : float; (** agreement with the initial solution *)
  sub_instance_size : (int * int) option;
      (** (vars, clauses) of the fast-EC cone when [Fast] was used *)
  resolve_time_s : float;
  reason : Ec_util.Budget.reason;
      (** why the last solve of the strategy stopped *)
  counters : Ec_util.Budget.counters;
      (** total spend across the strategy, including a fast-EC
          fallback's both stages; [Preserve] reports the [counters]
          of its {!Preserving.result} *)
}

type response = {
  result : updated option;
  reason : Ec_util.Budget.reason;
  counters : Ec_util.Budget.counters;
}
(** Like {!updated} but the stop reason and spend survive a failed
    solve, distinguishing a proved-unsatisfiable instance
    ([result = None], [reason = Completed]) from an exhausted budget
    ([result = None], any other reason). *)

val apply_change_response :
  ?strategy:resolve_strategy ->
  ?solver:Backend.t ->
  ?budget:Ec_util.Budget.t ->
  ?jobs:int ->
  initial ->
  Ec_cnf.Change.t list ->
  response
(** Apply the script to the initial solution's formula and re-solve
    with the chosen strategy (default [Fast], falling back to a full
    re-solve when the cone is unsatisfiable or over budget).  [budget]
    is one end-to-end allowance: the fallback full re-solve runs under
    what the cone solve left ({!Ec_util.Budget.consume}), so the pair
    overshoots a deadline by at most one check granularity.  Every
    full re-solve takes the initial solution as its
    {!Backend.solve_response} [hint].  The strategy runs on the calling
    domain.

    [jobs] must be 1 (the default); any other value raises
    [Invalid_argument].  The argument stays only because the
    benchmark's pipeline passes [~jobs:1]; it goes once that call
    drops it. *)
