(** Deterministic fault injection for the solve stack.

    Every engine entry point carries named {e failpoints} ("sites").
    In production the plan is empty and each hook is a single atomic
    read — effectively a no-op.  Chaos tests (and the [ECSAT_FAULTS]
    environment hook in the CLI) arm sites with an {!action}; the next
    time execution passes an armed site the fault fires: the returned
    model is bit-flipped, a satisfiable answer is forged into UNSAT,
    an exception is raised mid-solve, or the solve's budget is burned
    so the engine stops immediately.

    All randomness (which bit to flip) is drawn from a splitmix64
    stream seeded by the plan seed and the site's fire count, so a
    chaos run is replayable from one integer.

    Site catalog (see DESIGN.md §"Robustness"):
    - ["cdcl.solve"], ["cdcl.answer"]
    - ["bnb.solve"], ["bnb.answer"]
    - ["heuristic.solve"], ["heuristic.answer"]
    - ["simplex.solve"]
    - ["maxsat.core"]
    - ["serve.dispatch"], ["serve.session"]

    [*.solve] sites honor [Raise_exn] and [Burn_budget]; [*.answer]
    sites honor [Corrupt_model] and [Forge_unsat].
    ["maxsat.core"] ([Corrupt_model]) rewrites an unsat core reported
    inside the core-guided MaxSAT loop — the drill proving a corrupted
    core degrades to an honest Unknown instead of a wrong optimum.

    ["serve.dispatch"] ([Raise_exn], [Delay]) fires in the daemon's
    request-dispatch loop; ["serve.session"] ([Raise_exn],
    [Burn_budget], [Delay]) fires inside a serve session's solve.  The
    serve sites accept a session-name qualifier
    (["serve.session:mysession"]) so a chaos plan targets one session
    of a concurrent run deterministically — the engine fires both the
    unqualified site and the qualified one for the session at hand.

    All hooks are safe to run concurrently from several domains: the
    plan table sits behind a mutex, the scalar flags are atomics, and
    the unarmed fast path is a single atomic read. *)

type action =
  | Corrupt_model   (** bit-flip the returned model / solution point *)
  | Forge_unsat     (** replace a positive answer with UNSAT/infeasible *)
  | Raise_exn       (** raise {!Injected} mid-solve *)
  | Burn_budget     (** zero the solve's allowance so it stops at once *)
  | Delay           (** sleep ~50ms at the site (serve chaos) *)

exception Injected of string
(** Raised by a site armed with [Raise_exn]; the payload is the site
    name.  Containment in {!Ec_core.Backend} turns it (like any other
    engine exception) into [Unknown (Engine_failure _)]. *)

val action_to_string : action -> string
(** The plan-syntax spelling of an action (["corrupt"],
    ["forge-unsat"], ["raise"], ["burn"], ["delay"]) — the inverse of
    {!action_of_string}, used when reports echo an installed plan. *)

val action_of_string : string -> action option
(** ["corrupt"], ["forge-unsat"], ["raise"], ["burn"], ["delay"]. *)

val arm : ?times:int -> string -> action -> unit
(** Arm [site] with [action].  [times] bounds how often the fault
    fires before disarming itself (default: every pass).  Re-arming a
    site replaces its previous binding. *)

val set_seed : int -> unit
(** Seed for the corruption RNG streams (default [0xFA17]). *)

val reset : unit -> unit
(** Disarm every site and restore the default seed — the production
    state.  Tests call this in teardown. *)

val enabled : unit -> bool
(** Is any site armed?  The fast-path check every hook performs. *)

val fired : unit -> int
(** Total faults fired since the last {!reset}; lets tests assert a
    plan actually exercised its sites. *)

val configure : string -> (string, string) result
(** Parse and install an injection plan, e.g.
    ["seed=7;cdcl.answer=corrupt;bnb.solve=raise:1"] — semicolon-
    separated [site=action] bindings with an optional [:count] bound
    and an optional [seed=N] entry.  Used by the [ECSAT_FAULTS]
    environment hook.  On a malformed entry nothing is installed and
    [Error msg] describes the first offending binding. *)

val configure_from_env : unit -> unit
(** [configure] the value of the [ECSAT_FAULTS] environment variable,
    if set; a malformed plan aborts with an error on stderr (exit 2) —
    silently ignoring a typo would fake fault coverage. *)

(** {2 Hooks} — called by the engines; all are no-ops unless armed. *)

val maybe_raise : string -> unit
(** Fire a [Raise_exn] armed at [site].  @raise Injected *)

val maybe_delay : string -> unit
(** Fire a [Delay] armed at [site]: sleep ~50ms.  Used by the serve
    sites to simulate a stalled dispatcher or session. *)

val burn : string -> Budget.t -> Budget.t
(** [burn site budget] is an already-exhausted budget when [site] is
    armed with [Burn_budget], [budget] unchanged otherwise. *)

val point : string -> ?corrupt:(Rng.t -> 'a -> 'a) -> ?forge:('a -> 'a) -> 'a -> 'a
(** [point site v] passes the answer [v] through the site: when armed
    with [Corrupt_model] (and [~corrupt] given) the answer is rewritten
    under a deterministic RNG; when armed with [Forge_unsat] (and
    [~forge] given) it is replaced wholesale.  Otherwise [v]. *)
