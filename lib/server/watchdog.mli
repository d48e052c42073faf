(** Per-request watchdog for the serve daemon.

    One dedicated domain scans a registry of armed deadlines on a
    coarse tick and pulls the {!Ec_util.Budget} cancellation flag of
    any entry past its deadline.  This is the backstop {e behind} the
    per-request budget: engines already check their own wall-clock
    allowance, but only on a coarse tick — a solve wedged between
    ticks (an injected delay, a pathological propagation burst) is
    still reeled in by the watchdog, and the drain path reuses the
    same registry to cancel all in-flight work at once.

    Cancellation is cooperative either way: the engine answers
    [Unknown Cancelled] at its next check instead of wedging its
    domain.  Guards are cheap (one list cell under a mutex); arm one
    per request. *)

type t

val create : ?tick_s:float -> unit -> t
(** Spawn the watchdog domain.  [tick_s] (default 0.01) is the scan
    period — the worst-case lateness of a cancellation. *)

type token

val guard : t -> deadline_s:float -> Ec_util.Budget.t -> token
(** Arm a deadline [deadline_s] seconds from now for the budget.  When
    it expires before {!disarm}, the budget's cancellation flag is
    raised (a budget without its own flag is skipped — build requests
    with [Budget.create ~cancel]). *)

val disarm : t -> token -> unit
(** The request finished in time; the entry is dropped. *)

val fired : token -> bool
(** Did the watchdog cancel this guard's budget? *)

val cancel_all : t -> unit
(** Pull every armed entry's flag now — the drain deadline's "stop
    everything" sweep. *)

val shutdown : t -> unit
(** Stop and join the watchdog domain, waking it from its tick wait,
    so it returns without waiting out the tick.  Idempotent. *)
