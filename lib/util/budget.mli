(** Unified solver resource control.

    Every engine in the repository (CDCL, MaxSAT, branch & bound, the
    min-conflicts heuristic) accepts one [t] describing how much work
    a solve is allowed to do — wall-clock time, conflicts, search
    nodes, iterations (heuristic flips) — plus a cooperative
    cancellation flag.  Engines report how a solve stopped as a
    {!reason} and what it spent as {!counters}, which is what lets
    {!Ec_core.Flow} hand a fast-EC fallback the budget the cone solve
    left ({!consume}).

    Time is stored as a {e relative} allowance, not an absolute
    deadline: budgets live in configuration records built long before
    any solve starts.  An engine arms the deadline when the solve
    begins ({!start}), and checks it on a coarse tick so the clock is
    not read in inner loops. *)

type reason =
  | Completed         (** the engine finished on its own — a definitive
                          answer, or an incomplete engine out of moves *)
  | Deadline          (** wall-clock allowance exhausted *)
  | Conflict_budget
  | Node_budget
  | Iteration_budget  (** heuristic flips exhausted *)
  | Cancelled         (** the cooperative cancellation flag was raised *)
  | Engine_failure of string * string
      (** the engine itself misbehaved — it raised an exception, or its
          answer failed independent certification ({!Ec_core.Certify}).
          Carries the engine name and a human-readable detail.  A
          fallback chain treats it like any local exhaustion: the next
          stage still gets a chance. *)

val reason_to_string : reason -> string
(** Short lowercase rendering for logs and [c] comment lines
    (e.g. ["deadline"], ["engine-failure(cdcl: ...)"]). *)

type t = {
  time_s : float option;     (** wall-clock allowance, seconds *)
  conflicts : int option;    (** CDCL / B&B conflicts allowed *)
  nodes : int option;        (** search nodes allowed *)
  iterations : int option;   (** flips allowed *)
  cancel : bool Atomic.t;    (** cooperative cancellation flag; atomic
                                 so it can be raised from another
                                 domain (the serve watchdog) *)
}

val unlimited : t
(** No limits.  Its cancellation flag is a shared sentinel that is
    never raised; budgets that should be cancellable must be built
    with [create ~cancel]. *)

val create :
  ?time_s:float -> ?conflicts:int -> ?nodes:int -> ?iterations:int ->
  ?cancel:bool Atomic.t -> unit -> t
(** A budget limited in exactly the dimensions given; omitted
    dimensions are unlimited.  [~cancel] shares an existing
    cancellation flag (otherwise the budget gets a fresh one). *)

val of_time : float -> t
(** [of_time s] = [create ~time_s:s ()]. *)

val is_unlimited : t -> bool
(** No finite limit in any dimension (the cancellation flag may still
    stop a solve). *)

val cancel : t -> unit
(** Raise the budget's cancellation flag.
    @raise Invalid_argument on a budget without its own flag (one built
    without [~cancel], e.g. {!unlimited}). *)

val cancelled : t -> bool
(** Whether the budget's own cancellation flag has been raised (does
    not consult the process-wide interrupt line). *)

(** {2 Process-wide interrupt}

    A second cancellation line shared by {e every} budget in the
    process, checked by {!check} alongside the budget's own flag.
    This is the hook for SIGTERM/SIGINT handlers: a handler holds no
    budget, but the interrupt line reaches every engine on every
    domain, whatever budget it runs under.  Costs one extra atomic
    load per {!check}. *)

val interrupt : unit -> unit
(** Raise the process-wide interrupt line; every solve in flight stops
    with [Cancelled] at its next budget check.  Async-signal-safe (a
    single atomic store). *)

val combine : t -> t -> t
(** Tightest of two budgets in every dimension.  The cancellation flag
    is taken from the first argument unless it is the never-raised
    sentinel, in which case the second's is used. *)

(** What a solve spent.  [restarts] are informational only. *)
type counters = {
  spent_conflicts : int;
  spent_nodes : int;
  spent_restarts : int;
  spent_iterations : int;
  spent_wall_s : float;
}

val zero : counters
(** All counters at zero — the identity of {!add}. *)

val add : counters -> counters -> counters
(** Component-wise sum: how a fast-EC fallback, MaxSAT and the
    preserving engines total the spend of their stages or probes. *)

val consume : t -> counters -> t
(** Remaining budget after the given expenditure, clamped at zero in
    each dimension: the budget a fallback stage should hand to its
    successor.  The cancellation flag is shared, not copied. *)

(** {2 Per-solve gauges}

    A gauge arms a budget for one solve: it fixes the absolute
    deadline and counts checks so the clock is only consulted every
    few ticks.  Engines call {!check} once per coarse unit of work
    (conflict, node, a handful of flips) with their running
    totals. *)

type gauge

val start : t -> gauge
(** Arm the budget for one solve: fixes the absolute deadline now and
    resets the check-tick counter. *)

val elapsed_s : gauge -> float
(** Wall-clock seconds since {!start}. *)

val check :
  ?conflicts:int -> ?nodes:int -> ?iterations:int -> gauge -> reason option
(** [None] while the solve may continue; [Some r] names the first
    exhausted dimension.  A limit of [n] allows exactly [n] units, so
    a budget of 0 trips on the first unit of work.  The deadline is
    consulted at most once per {!tick_granularity} calls (and on the
    first), so overshoot is bounded by one coarse tick.  A zero or
    negative time allowance expires at the first check, however
    little time has passed since {!start}. *)

val tick_granularity : int
(** Number of {!check} calls between wall-clock reads. *)
