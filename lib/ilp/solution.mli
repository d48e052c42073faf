(** Solver results for 0-1 ILP models. *)

type status =
  | Optimal        (** proved optimal *)
  | Feasible       (** a solution, optimality not proved (heuristics) *)
  | Infeasible
  | Unknown        (** search hit a limit before finding any point *)

type t = {
  status : status;
  values : float array;   (** indexed by model variable id; empty for
                              [Infeasible]/[Unknown] *)
  objective : float;      (** objective at [values]; 0.0 when no point *)
}

val status_to_string : status -> string

val value : t -> int -> float
(** @raise Invalid_argument when out of range or when the solution
    carries no point. *)

val binary_value : ?eps:float -> t -> int -> bool
(** Round a 0-1 variable.
    @raise Invalid_argument if the value is not within [eps] of 0 or 1
    (default eps = 1e-6). *)

val has_point : t -> bool

val infeasible : t

val unknown : t
