(** Preserving EC (paper §7): re-solve while keeping the maximum of
    the previous solution.

    The ILP formulation maximizes [Σ Zi] with
    [Zi = pi·xi + p(n+i)·x(n+i)] — one agreement indicator per
    variable, which is linear because the old assignment [p] is a
    constant.  Variables that were DC in [p] count as preserved when
    they stay DC ([1 - xi - x(n+i)]), extending the paper's objective
    to the DC-aware encoding.

    Four exact engines compute the same optimum:

    - [Ilp_objective]: the §7 model solved by branch & bound — the
      paper's own route;
    - [Ilp_iterative]: the same model as repeated decision probes
      ("preserve at least k?" with the objective restated as a hard
      row), the whole ILP re-encoded from scratch per probe.  The
      rebuild-everything baseline the incremental engines are measured
      against ([work] exposes what the rebuilding costs);
    - [Sat_cardinality]: the set-cover view re-expressed as CNF (two
      phase variables per CNF variable — "stays DC" is "both phases
      off"), one disagreement indicator per variable, a reusable
      counter over the indicators encoded {e once}, and binary search
      on the bound where each probe is one assumption against a single
      incremental CDCL session — learnt clauses carry across probes;
    - [Sat_maxsat]: core-guided MaxSAT ({!Ec_sat.Maxsat}) with soft
      "keep" literals [¬d_v], one incremental session end to end,
      totalizer bounds strengthened in place per extracted core.  Every
      decisive verdict is independently re-validated
      ({!Certify.check_maxsat}) before it becomes a result.

    User-specified preservation ("preserve user specified parts of the
    solutions") is the [pins] argument: pinned variables are hard
    constraints, not objective terms. *)

type engine =
  | Ilp_objective of Ec_ilpsolver.Bnb.options
  | Ilp_iterative of Ec_ilpsolver.Bnb.options
  | Sat_cardinality of Ec_sat.Cdcl.options
  | Sat_maxsat of Ec_sat.Maxsat.options

val default_engine : engine

(** Deterministic work counters — the currency the bench harness uses
    to compare engines independently of wall clock. *)
type work = {
  probes : int;
      (** solver queries: B&B solves for the ILP engines, incremental
          SAT calls for the SAT engines *)
  clauses_encoded : int;
      (** CNF clauses posted (SAT engines) or ILP rows built (ILP
          engines) across the whole resolve — what re-encoding costs
          and what the incremental engines avoid *)
  cores : int;  (** unsat cores extracted ([Sat_maxsat] only) *)
}

type result = {
  solution : Ec_cnf.Assignment.t option;
      (** [None] when the modified instance is unsatisfiable (or
          unsatisfiable under the pins), or the budget ran out before
          any solution was found *)
  preserved : int;   (** variables agreeing with the reference *)
  total : int;       (** variables compared *)
  optimal : bool;    (** optimality of [preserved] was proved *)
  reason : Ec_util.Budget.reason;
      (** [Completed] when the engine finished; otherwise what cut the
          optimization short (the best solution found so far is still
          returned) *)
  counters : Ec_util.Budget.counters;
      (** what the optimization spent — the single B&B solve, or the
          sum over the cardinality engine's binary-search probes.
          {!Flow.apply_change_response} threads these into its own
          totals like the other strategies. *)
  work : work;  (** deterministic per-engine work accounting *)
}

val resolve :
  ?engine:engine ->
  ?pins:int list ->
  ?weights:(int * float) list ->
  ?budget:Ec_util.Budget.t ->
  Ec_cnf.Formula.t ->
  reference:Ec_cnf.Assignment.t ->
  result
(** Solve the (modified) formula, maximizing agreement with
    [reference].  [pins] lists variables whose reference value
    (including DC) becomes a hard requirement.  [weights] scales the
    agreement objective per variable (default 1.0 each): "changing this
    decision costs ten re-spins downstream" becomes weight 10 — the
    quantitative form of §7's user-specified preservation.  Weighted
    objectives require the [Ilp_objective] engine; [preserved]/[total]
    still report the unweighted count.  [budget] caps the whole
    optimization; the cardinality engine's binary-search probes share
    the one allowance, and a cutoff returns the best incumbent found
    with [optimal = false].

    The arguments are checked first, for every engine.  Then, if
    [reference] over [f]'s variables (DC beyond its own, and a DC
    literal counting as not true) satisfies every clause of [f], it is
    the answer, before anything is encoded: [preserved = total],
    [optimal], [Completed], zero counters and no work.  Every compared
    variable keeps its value, so it is every engine's optimum.  No
    budget is consulted, so an exhausted one gets the same answer, as
    fast EC's already-satisfied requests do.
    @raise Invalid_argument if a pinned or weighted variable is out of
    range, a weight is negative, or weights are passed to an engine
    other than [Ilp_objective]. *)

val preserved_fraction : result -> float
(** [preserved / total]; 1.0 when nothing is compared. *)
