(** Primal simplex over a dense tableau.

    This is the LP engine under the branch-and-bound ILP solver — the
    role CPLEX's LP relaxation plays in the paper.  Two-phase method:
    Phase I drives artificial variables out to find a basic feasible
    point, Phase II optimizes.  Dantzig pricing with an automatic
    switch to Bland's rule (which cannot cycle) after an iteration
    threshold.

    Problems are given in the canonical form
    [max c·x  subject to  A·x <= b, x >= 0]; {!solve_model} converts a
    continuous {!Ec_ilp.Model.t} (equalities, >= rows, variable upper
    bounds) into that form first. *)

type options = {
  bland_factor : int;
      (** Dantzig pricing switches to Bland's rule after
          [bland_factor * (rows + cols + 10)] pivots; higher keeps the
          faster heuristic longer, 0 is pure Bland from the start *)
  budget : Ec_util.Budget.t;
      (** pivots draw on the [iterations] dimension; the deadline and
          cancellation flag are checked once per pivot *)
}

val default_options : options
(** [bland_factor = 50], no limits. *)

val config : options Ec_util.Config.spec
(** Tunable surface for the unified config plane: [bland_factor].
    The budget stays outside the spec. *)

type result =
  | Optimal of { point : float array; objective : float }
  | Infeasible
  | Unbounded
  | Interrupted of Ec_util.Budget.reason
      (** the budget cut the solve off mid-phase; no verdict *)

val solve_canonical :
  ?options:options -> ?budget:Ec_util.Budget.t ->
  a:float array array -> b:float array -> c:float array -> unit -> result
(** [solve_canonical ~a ~b ~c ()] solves [max c·x, a·x <= b, x >= 0].
    Rows of [a] must all have length [Array.length c]; [b] matches the
    row count.  Negative entries of [b] are handled by Phase I.
    A direct [?budget] is intersected with the options' budget for
    this call only (the per-call allowance convention shared with the
    incremental SAT session).
    @raise Invalid_argument on dimension mismatches. *)

val solve_model :
  ?options:options -> ?budget:Ec_util.Budget.t -> Ec_ilp.Model.t -> Ec_ilp.Solution.t
(** LP-solve a model, treating [Binary] variables as continuous in
    [0, 1] (callers wanting the relaxation of an ILP can pass the model
    directly).  Lower bounds must be 0 — the encodings in this
    reproduction never need shifted variables.
    Minimization objectives are negated internally.  A budget
    interruption comes back as {!Ec_ilp.Solution.unknown}.
    @raise Invalid_argument on a negative lower bound. *)

val iterations_performed : unit -> int
(** Total pivots performed {e on the calling domain} since it started;
    instrumentation for the bench harness's ablations and the
    per-solve pivot counters.  Domain-local so solves on concurrent
    pool domains measure their own before/after deltas exactly. *)
