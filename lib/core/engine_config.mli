(** One value for "an engine plus its tunables", across all four
    engines.

    {!Ec_util.Config} gives each engine a typed spec over its own
    [options] record; this module is the closed union of those specs
    so callers that do not know which engine they hold — the CLI's
    [--engine-opt], the benchmark matrix — can
    still show, parse, tweak and digest a configuration.

    The textual form is [ENGINE] or [ENGINE:KEY=VAL,...], e.g.
    ["cdcl"], ["bnb:branching=first-unfixed,tie_seed=7"],
    ["heuristic:stop_at_first_feasible=true"].  [show] is canonical
    (all fields, spec order), so [parse (show t) = Ok t]; the matrix
    keys cells by {!digest} of that canonical form.

    Engine names here are the config-plane names ([cdcl], [bnb],
    [heuristic], [maxsat]); {!Backend} maps each to its own backend
    name ([bnb] is ["ilp-bnb"] there, etc.) via [Backend.of_config]. *)

type t =
  | Cdcl of Ec_sat.Cdcl.options
  | Bnb of Ec_ilpsolver.Bnb.options
  | Heuristic of Ec_ilpsolver.Heuristic.options
  | Maxsat of Ec_sat.Maxsat.options

val engines : string list
(** Config-plane engine names, in display order:
    [["cdcl"; "bnb"; "heuristic"; "maxsat"]]. *)

val default : string -> (t, string) result
(** Engine at its default options, by config-plane name.  [Error]
    names the unknown engine and lists the known ones. *)

val name : t -> string
(** The config-plane engine name. *)

val show : t -> string
(** Canonical form: [ENGINE:KEY=VAL,...] with every tunable in spec
    order, or just [ENGINE] for a spec without fields.
    [parse (show t) = Ok t]. *)

val parse : string -> (t, string) result
(** Inverse of {!show}, starting from the engine's defaults; also
    accepts partial forms ([ENGINE], [ENGINE:KEY=VAL] with keys
    omitted meaning defaults). *)

val apply : t -> string -> (t, string) result
(** Apply one [KEY=VAL] pair — the [--engine-opt] primitive.  [Error]
    on unknown keys (message lists the engine's keys) or malformed
    values. *)

val apply_all : t -> string list -> (t, string) result
(** Fold {!apply} left to right; first error wins. *)

val digest : t -> string
(** Stable hex digest of the canonical form, including the engine
    name — the benchmark matrix's config key. *)

val document : unit -> string
(** Every engine's spec (doc line, keys, defaults) as a multi-line
    help text — the [ecsat solve --list-engines] surface. *)
