(** Branch-and-bound solver for 0-1 ILP models.

    Plays the role of CPLEX in the paper: a sound and complete 0-1
    optimizer.  Depth-first search with

    - incremental min/max row-activity propagation (the 0-1 analogue of
      unit propagation: it fixes forced variables and detects dead
      subtrees early),
    - objective-based pruning against the incumbent,
    - selectable branching and value-ordering heuristics, read from
      active-row counts that fixing and unfixing keep current, so a
      node costs what its fixes touch rather than a pass over every
      row (DESIGN.md §4).

    When the search completes, the result status is [Optimal] (or
    [Infeasible]); when a node/time limit interrupts it, the best
    incumbent is returned as [Feasible], or [Unknown] if none was
    found. *)

type branching =
  | First_unfixed      (** lowest-index unfixed variable *)
  | Most_constrained   (** most occurrences in still-active rows *)

type options = {
  branching : branching;
  budget : Ec_util.Budget.t;
      (** nodes and propagation conflicts draw on the shared budget;
          the deadline and cancellation flag are checked once per node *)
  greedy_completion : bool;
      (** when every row is satisfied under any completion of the
          current partial point, finish it greedily by objective sign
          instead of branching on.  A domination rule 2002-era MIP
          solvers lacked; the bench harness ablates it. *)
  tie_seed : int option;
      (** randomize exact branching-score ties from this seed; models
          the run-to-run arbitrariness of a black-box MIP solver (used
          by the Table-3 baseline), [None] = deterministic *)
}

val default_options : options
(** [Most_constrained], greedy completion on, no limits. *)

val config : options Ec_util.Config.spec
(** Tunable surface for the unified config plane: [branching]
    ([first-unfixed]|[most-constrained]), [greedy_completion],
    [tie_seed] (["none"] = deterministic).  The budget stays outside
    the spec. *)

type stats = {
  nodes : int;
  conflicts : int;
  propagated_fixes : int;
}

type response = {
  solution : Ec_ilp.Solution.t;
  reason : Ec_util.Budget.reason;
      (** [Completed] when the search finished (or stopped at the first
          feasible point as requested); otherwise the budget dimension
          that interrupted it *)
  stats : stats;
  counters : Ec_util.Budget.counters;
}

val solve_response : ?options:options -> Ec_ilp.Model.t -> response

val solve_decision_response : ?options:options -> Ec_ilp.Model.t -> response
(** Like {!solve_response} but stops at the first feasible point
    regardless of the objective (the objective still guides value
    ordering).  This is the mode used when the encoded question is
    satisfiability. *)

(** {2 Chaos-test failpoint payloads}

    Shared by the [bnb.answer] and [heuristic.answer] failpoints
    ({!Ec_util.Fault}); certification downstream must catch both. *)

val corrupt_solution : Ec_util.Rng.t -> Ec_ilp.Solution.t -> Ec_ilp.Solution.t
(** Flip one entry of the solution point (x ↦ 1 − x); solutions
    without a point are unchanged. *)

val forge_infeasible : Ec_ilp.Solution.t -> Ec_ilp.Solution.t
(** Replace an [Optimal]/[Feasible] verdict with [Infeasible]. *)
