(** Iterative-improvement heuristic for 0-1 models.

    Stands in for the "heuristic iterative improvement-based ILP
    solver" the paper cites as its reference [6] and uses to produce
    initial solutions for the large instances.  Classic min-conflicts
    local search: start from a random point, repeatedly pick a violated
    row and flip the variable in it that most reduces total violation,
    with a noise probability of a random flip (WalkSAT-style), a tabu
    tenure to avoid two-cycles, and restarts.

    Feasible points are recorded as incumbents ranked by the model
    objective; the search then perturbs and continues, so with budget
    left it also improves objective quality.  The result status is
    [Feasible] (never [Optimal]) or [Unknown] when no feasible point
    was found within budget. *)

type options = {
  max_flips : int;          (** per restart *)
  max_restarts : int;
  noise : float;            (** probability of a random (non-greedy) flip *)
  tabu_tenure : int;        (** flips during which re-flipping is discouraged *)
  seed : int;
  stop_at_first_feasible : bool;
      (** return as soon as any feasible point is found (the mode used
          to seed the large-instance pipeline) *)
  initial_point : int array option;
      (** warm start for the first restart: repair/extend an existing
          solution instead of starting from a random point *)
  budget : Ec_util.Budget.t;
      (** flips draw on the [iterations] dimension; the deadline and
          cancellation flag are checked once per flip.  [max_flips] and
          [max_restarts] stay as search-shape parameters; the budget is
          the hard cross-engine cap. *)
}

val default_options : options

val config : options Ec_util.Config.spec
(** Tunable surface for the unified config plane: [max_flips],
    [max_restarts], [noise], [tabu_tenure], [seed],
    [stop_at_first_feasible].  The budget and [initial_point] warm
    start are per-solve runtime state and stay outside the spec. *)

type stats = {
  flips : int;
  restarts : int;
  feasible_hits : int;      (** number of times a feasible point was reached *)
}

type response = {
  solution : Ec_ilp.Solution.t;
  reason : Ec_util.Budget.reason;
      (** [Completed] when the restart schedule ran dry or the first
          feasible point was returned as requested — this engine is
          incomplete, so [Completed] does not imply a verdict *)
  stats : stats;
  counters : Ec_util.Budget.counters;
}

val solve_response : ?options:options -> Ec_ilp.Model.t -> response
(** @raise Invalid_argument if the model has continuous variables. *)
