(** The benchmark matrix: engine configs × scenarios × scales, with a
    persistent append-only results store and a trend-over-commits
    regression gate.

    Every engine-comparison and ablation number the documentation
    cites is one {!cell} of this matrix, keyed by the commit it was
    measured at, the engine config's {!Ec_core.Engine_config.digest},
    the scenario name, the scale and the machine's online core count.
    Cells append to a JSONL store ([bench/results.jsonl] in the
    repository) — never overwritten, so the store is the measurement
    history and the gate can compare any commit against the most
    recent prior one.

    Determinism contract: a scenario run is budgeted by {e work}
    dimensions only (conflicts, nodes, iterations — never wall time)
    and draws every change from a fixed seed, and its stream workloads
    only ever {e add} clauses satisfied by the planted assignment, so
    the instance stays satisfiable at every step.  The work counters
    of two runs of the same (digest, scenario, scale) on the same
    commit are bit-identical single-threaded.  Wall time is recorded
    but is the only hardware-sensitive column; the gate skips it on
    unsuitable hosts (see {!gate}). *)

(** {2 Cells} *)

type cell = {
  commit : string;       (** short commit hash, or ["dev"] *)
  engine : string;       (** config-plane engine name, for grouping *)
  config : string;       (** canonical {!Ec_core.Engine_config.show} *)
  digest : string;       (** {!Ec_core.Engine_config.digest} — config key *)
  scenario : string;
  scale : int;
  cores_online : int;    (** cores available when measured *)
  ok : bool;             (** scenario-level success (e.g. all steps Sat) *)
  work : (string * int) list;
      (** deterministic work counters, name to value, in a fixed
          order: (conflicts, decisions, restarts, iterations)
          for solve scenarios, scenario-specific counts for the
          ablations *)
  wall_s : float;        (** the one hardware-sensitive column *)
}

val cell_to_json : cell -> string
(** One-line JSON object — the store's record format. *)

val cell_of_json : string -> (cell, string) result
(** Inverse of {!cell_to_json}; tolerant of extra fields so the record
    format can grow. *)

(** {2 The store} *)

val load : path:string -> (cell list, string) result
(** All cells in file order (oldest first).  A missing file is
    [Ok []]; a malformed line is [Error] naming the line number. *)

val append : path:string -> cell list -> (int, string) result
(** Append cells to the JSONL store at [path], creating it if absent,
    and return how many were written.  A cell whose (commit, digest,
    scenario, scale) key the store already holds is skipped, so
    re-running the matrix on a commit stores its cells once.  [Error] is the system
    message (unreadable or malformed store, unwritable path, full
    disk). *)

(** {2 Scenarios} *)

type scenario
(** A named deterministic workload that an engine config runs at a
    scale. *)

val scenario_name : scenario -> string
(** The name cells record in their [scenario] column. *)

val builtins : scenario list
(** The in-library scenario families:

    - ["stream"] — an engineering-change stream: a scaled paper
      instance re-solved after each of several add-only clause
      deltas (each delta satisfied by the planted assignment, so
      every step stays SAT).  Every engine.
    - ["tables"] — the Tables 1–3 instance suite (exact tier, scaled)
      solved once per instance, the tables' "original solve" column.
      Every engine.
    - ["optimize"] — one B&B optimization-mode solve of [jnh201]
      (ablations A1 and A3); every [bnb] config.  Adds a [capped]
      count.
    - ["warmstart"] — cold vs phase-hinted CDCL vs optimal preserving
      EC after a Table 3 change to [jnh201], and DC recovery's gain
      (A4, A6).
    - ["cone"] — fast-EC cone variables from an enabled vs a plain
      initial solution of [f600] (A5).
    - ["incremental"] — 25 clause additions to [jnh1] absorbed by
      scratch CDCL, one incremental session, and fast-EC cones (A8).

    The last three pair with the default [cdcl] config only.  The
    serve-session scenario lives in [bench/main.ml] (registered via
    {!custom}) because the harness does not link the server. *)

val default_engines : string list
(** The engine configs the matrix runs when none are named: one per
    engine, plus the two B&B ablations of ["optimize"]. *)

val custom :
  name:string ->
  run:(engine:Ec_core.Engine_config.t -> scale:int -> (bool * (string * int) list) option) ->
  scenario
(** A caller-supplied scenario; [run] returns [None] when the engine
    pairing is unsupported (the cell is skipped), otherwise the
    success flag and the deterministic work counters. *)

(** {2 Running} *)

val cores_online : unit -> int
(** The host's available core count ([Domain.recommended_domain_count]),
    recorded in every cell and consulted by the gate. *)

val run_cell : commit:string -> scenario -> Ec_core.Engine_config.t -> scale:int -> cell option
(** Run one cell; [None] when the scenario does not support the
    engine (e.g. [cdcl] × ["optimize"]). *)

(** {2 The regression gate} *)

type verdict = {
  cell : cell;
  baseline : cell option;
      (** the most recent stored cell with the same (digest, scenario,
          scale) from a {e different} commit; [None] means nothing to
          compare against *)
  passed : bool;
  notes : string list;
      (** human-readable reasons: failures, and skips (no baseline,
          wall gate off) *)
}

val gate : baseline:cell list -> cell list -> verdict list
(** Judge each current cell against the store.  Failure conditions:
    the cell is not [ok] (with or without a baseline), a work counter
    beyond [baseline * 1.5 + 64], or wall time beyond
    [baseline * 2.0 + 0.5] s.  The wall comparison is skipped with a
    note when the cells disagree on [cores_online] or the cell was
    measured with [cores_online <= 1]: there the one core is shared
    with whatever else the host runs, so wall time says more about the
    host than about the code. *)
