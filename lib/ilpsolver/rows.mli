(** Normalized constraint system for the 0-1 solvers.

    Both the branch-and-bound and the heuristic solver want the same
    view of a model: every constraint as [Σ ci·xi <= ub] over binary
    variables only, with per-variable occurrence arrays and a minimize
    objective.  [Ge] rows are negated, [Eq] rows split in two,
    [Maximize] objectives negated; constant parts are folded into the
    right-hand sides. *)

type row = {
  coeffs : float array;
  vars : int array;     (** same length as [coeffs] *)
  ub : float;
  origin : string;      (** name of the model constraint it came from *)
}

type t = {
  nvars : int;
  rows : row array;
  occ_start : int array;
      (** length [nvars + 1]: variable [v]'s occurrences are the
          positions [occ_start.(v)] to [occ_start.(v + 1) - 1] of
          [occ_row] and [occ_coeff] *)
  occ_row : int array;  (** row index of each occurrence *)
  occ_coeff : float array;
      (** the variable's coefficient in that row.  Within one
          variable the rows run in descending index order.  Branch and
          bound pushes a fixed variable's rows onto its propagation
          queue in this order, so the order in which forced variables
          are found, and with it [propagated_fixes] and the point
          returned, depend on it. *)
  obj : float array;    (** minimize Σ obj.(i)·xi + obj_const *)
  obj_const : float;
  flip_objective : bool;
      (** true when the model maximized: flip sign when reporting *)
}

val of_model : Ec_ilp.Model.t -> t
(** @raise Invalid_argument if the model has non-binary variables. *)

val min_activity : row -> float
(** Activity lower bound with every variable free. *)

val report_objective : t -> float -> float
(** Map an internal (minimize) objective value back to the model's
    sense, re-adding the constant part. *)

val point_feasible : ?eps:float -> t -> int array -> bool
(** Is a full 0/1 point (values 0 or 1 per variable) feasible? *)

val violated_rows : ?eps:float -> t -> int array -> int list
(** Indices of rows violated by a full 0/1 point. *)

val internal_objective : t -> int array -> float
(** Minimize-sense objective of a 0/1 point (without constant). *)
