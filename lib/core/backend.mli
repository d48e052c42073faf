(** Solver backends for SAT instances inside the EC flow.

    The paper's Figure 1 lets either "a standard ILP solver" or "the
    heuristic iterative improvement-based ILP solver" produce
    solutions.  This module is that choice point, with two modern SAT
    engines added for scale:

    - [Ilp_exact]     — set-cover encode, branch & bound (CPLEX's role);
    - [Ilp_heuristic] — set-cover encode, min-conflicts local search;
    - [Cdcl]          — clause-learning SAT solver on the CNF directly;
    - [Maxsat]        — the core-guided engine ({!Ec_sat.Maxsat}) in
      decision mode; on models, a native optimizer for
      uniform-magnitude objectives (proved [Optimal] status).

    All backends return DC-aware assignments: the ILP paths because the
    set-cover objective leaves phases unselected, the SAT paths through
    an explicit {!Ec_sat.Minimize.recover_dc} pass (controlled by
    [~recover_dc]).

    Every solve goes through the unified control plane
    ({!Ec_util.Budget}): callers can cap any solve with [?budget] and
    read why it stopped from the {!response}. *)

type t =
  | Ilp_exact of Ec_ilpsolver.Bnb.options
  | Ilp_heuristic of Ec_ilpsolver.Heuristic.options
  | Cdcl of Ec_sat.Cdcl.options
  | Maxsat of Ec_sat.Maxsat.options

val ilp_exact : t
(** [Ilp_exact] with default options. *)

val ilp_heuristic : t

val cdcl : t

val maxsat : t

val name : t -> string
(** Short engine identifier ("cdcl", "ilp-bnb", "ilp-heuristic",
    "maxsat") — used in responses, traces and metric names. *)

val of_config : Engine_config.t -> (t, string) result
(** Backend for an engine configuration.  The config plane's [bnb]
    and [heuristic] are [Ilp_exact] and [Ilp_heuristic] here;
    [simplex] is [Error] (a continuous LP engine, not a feasibility
    backend). *)

val to_config : t -> Engine_config.t
(** The backend's engine configuration — total, so any backend can
    be shown, digested and reproduced from the command line
    ([Engine_config.show (to_config b)]). *)

val observe_response : engine:string -> Ec_util.Budget.counters -> unit
(** Record a solve's spend under the ["solve.<engine>.*"] metric
    counters (conflicts, decisions, pivots, restarts, iterations, plus
    a ["calls"] count) — a no-op unless {!Ec_util.Metrics} is enabled.
    Called internally by every [solve_*] entry point; exposed for
    callers that drive engines outside this module's containment
    (e.g. {!Flow}'s preserving strategy). *)

val with_phase_hint : t -> Ec_cnf.Assignment.t -> t
(** For backends with a warm-start notion (CDCL phase saving), seed it
    with a previous solution; other backends are returned unchanged. *)

val with_budget : t -> Ec_util.Budget.t -> t
(** Intersect the backend's own budget with the given one
    ({!Ec_util.Budget.combine}); used by the CLI's [--timeout] /
    [--conflicts] flags. *)

type response = {
  outcome : Ec_sat.Outcome.t;
  reason : Ec_util.Budget.reason;
      (** [Completed] on a definitive answer; otherwise what stopped
          the engine.  An [Unknown Completed] outcome means the engine
          finished without a verdict (incomplete engine out of moves,
          or an undecodable ILP point). *)
  counters : Ec_util.Budget.counters;  (** what the solve spent *)
  engine : string;  (** {!name} of the backend that answered *)
}

type model_response = {
  solution : Ec_ilp.Solution.t;
  reason : Ec_util.Budget.reason;
  counters : Ec_util.Budget.counters;
  engine : string;
}

val solve_response :
  ?recover_dc:bool ->
  ?budget:Ec_util.Budget.t ->
  ?hint:Ec_cnf.Assignment.t ->
  t -> Ec_cnf.Formula.t -> response
(** Satisfiability + model + control-plane report.  [recover_dc]
    (default [true]) runs the DC-recovery pass on models produced by
    total-assignment engines.  [budget] is intersected with the
    backend's own options budget.  [hint] is a known earlier solution
    (e.g. the one before an engineering change): it warm-starts the
    backend ({!with_phase_hint}) and witnesses against a claimed
    UNSAT — an [Unsat] the hint still satisfies is demoted to
    [Unknown (Engine_failure _)] ({!Certify.outcome}). *)

val solve_model_response :
  ?budget:Ec_util.Budget.t -> t -> Ec_ilp.Model.t -> model_response
(** Solve an arbitrary 0-1 model (used by enabling/preserving, whose
    models are richer than plain clause systems).  [Cdcl] translates
    clause-like models to CNF through {!Cnfize} and solves the decision
    question natively (objective reported at the found point, status
    [Feasible]); [Maxsat] additionally optimizes uniform-magnitude
    objectives natively (soft literal per term, proved [Optimal]
    status); general rows and non-uniform objectives fall back to
    branch & bound (under the same budget).
    Optimization is exact under [Ilp_exact]; [Ilp_heuristic] returns
    its best feasible point. *)
