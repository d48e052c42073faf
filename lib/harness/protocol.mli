(** Shared experimental protocol for the three tables.

    Encapsulates the paper's solver assignment: instances in the
    [Exact] tier are solved by the branch-and-bound ILP solver (CPLEX's
    role); instances in the [Heuristic] tier get their initial solution
    from the iterative-improvement solver and their re-solves from an
    exact engine ("an off-the-shelf solver" in §8).

    A [config] fixes the instance scale (1.0 = the paper's sizes — can
    take hours, exactly as the paper's Table 1 did on CPLEX), trial
    counts, seeds and safety limits, so every table run is reproducible
    from the config alone. *)

(** Which engine Table 3's preserving re-solves use.  [Tiered] is the
    historical assignment — the §7 ILP objective on the [Exact] tier,
    the CDCL cardinality search on the [Heuristic] tier; the forced
    choices run one engine across both tiers, which is how the bench
    compares core-guided MaxSAT against the exact ILP on identical
    trials ([ecsat tables --engine], BENCH_maxsat.json). *)
type preserving_choice = Tiered | Forced_ilp | Forced_maxsat

type config = {
  scale : float;           (** instance shrink factor, 1.0 = paper size *)
  trials : int;            (** trials per instance for Tables 2/3 *)
  seed : int;
  budget : Ec_util.Budget.t;
      (** safety cap applied to every solve the protocol issues (wall
          clock, B&B nodes, heuristic flips — one record for all
          dimensions, see {!Ec_util.Budget}) *)
  include_large : bool;    (** run the heuristic-tier instances too *)
  enabled_initial : bool;
      (** produce the initial solution through enabling EC, as in the
          paper's Figure-1 flow (the "EC solution" feeds the modify
          stage).  Off = plain solve; the bench ablates the two. *)
  jobs : int;
      (** batch parallelism: instances fan out over a domain pool of
          this size ({!Ec_util.Pool}); [1] (the default) runs them in
          order on the calling domain.  Every instance draws its change
          scripts from its own stream ({!instance_seed}), so the tables
          are the same at every [jobs]. *)
  preserving : preserving_choice;
      (** engine for Table 3's preserving re-solves (default
          [Tiered]) *)
}

val default_config : config
(** scale 0.18, 10 trials (the paper's Table 2 count), capped solves,
    large tier included. *)

val paper_config : config
(** scale 1.0, uncapped.  Expect very long runs. *)

val bnb_options : config -> Ec_ilpsolver.Bnb.options
(** The exact tier's branch-and-bound options under this config:
    {!Ec_ilpsolver.Bnb.default_options} capped by the config's safety
    [budget] (table protocols layer their own 2002-era tweaks, e.g.
    Table 1 disabling greedy completion, on top of this). *)

val heuristic_options : config -> Ec_ilpsolver.Heuristic.options
(** The heuristic tier's min-conflicts options under this config:
    first-feasible mode, the config's seed and safety [budget]. *)

val instances : config -> Ec_instances.Registry.instance list
(** Build the (scaled) suite — both tiers unless [include_large] is
    false. *)

val is_heuristic_tier : Ec_instances.Registry.instance -> bool
(** True for instances the paper's tables assign to the heuristic
    solver (the large tier); drives the per-tier solver dispatch of
    {!initial_solve}. *)

val map_instances : config -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving map over independent work items: in-order on the
    calling domain when [config.jobs <= 1], fanned over a
    [config.jobs]-wide domain pool otherwise. *)

val instance_seed : config -> int -> int
(** Deterministic RNG seed for the instance at the given position in
    the suite; independent of [jobs] and of completion order. *)

val with_instance_span : instance:string -> stage:string -> (unit -> 'a) -> 'a
(** Wrap one instance's whole table workload in a ["table.instance"]
    trace span annotated with the instance name and the table stage
    (["table1"], ["table2"], ["table3"]) — a no-op unless
    {!Ec_util.Trace} is enabled.  Tables 1–3 call this around every
    row so traced runs can be rolled up per instance. *)

val instance_rollup : unit -> Ec_util.Trace.rollup_row list
(** Per-instance span rollup over the buffered trace: one row per
    [stage/instance] pair with its occurrence count and total
    duration.  [ecsat tables --trace] prints this after the tables. *)

type timed_solve = {
  assignment : Ec_cnf.Assignment.t;
  time_s : float;
  certified : bool;
      (** the decoded assignment passed an independent clause-by-clause
          re-check against the instance's CNF
          ({!Ec_core.Certify.check_model}); tables must treat
          [certified = false] as an unsolved instance, never as data *)
}

val initial_solve :
  config -> Ec_instances.Registry.instance -> timed_solve option
(** The "Orig. Runtime" column: solve the instance's set-cover ILP —
    branch & bound on the [Exact] tier, first-feasible heuristic on the
    [Heuristic] tier — and return the decoded assignment with the
    wall-clock seconds and its certification status.  With
    [enabled_initial] the model carries the §5 flexibility rows and the
    decoded solution is DC-recovered, so the change experiments start
    from the Figure-1 "EC solution".  [None] if the solve failed within
    limits. *)
