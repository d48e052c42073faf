type violation =
  | Constraint_violated of string * float
  | Bound_violated of int * float
  | Not_integral of int * float

let violation_to_string = function
  | Constraint_violated (name, by) ->
    Printf.sprintf "constraint %s violated by %g" name by
  | Bound_violated (i, x) -> Printf.sprintf "variable x%d = %g outside bounds" i x
  | Not_integral (i, x) -> Printf.sprintf "binary variable x%d = %g not integral" i x

let check ?(eps = 1e-6) model point =
  if Array.length point <> Model.num_vars model then
    invalid_arg "Validate.check: point length mismatch";
  let violations = ref [] in
  let add v = violations := v :: !violations in
  for i = 0 to Model.num_vars model - 1 do
    let x = point.(i) in
    if x < -.eps || x > 1.0 +. eps then add (Bound_violated (i, x))
    else if abs_float x > eps && abs_float (x -. 1.0) > eps then add (Not_integral (i, x))
  done;
  let start = Model.term_start model in
  let vars = Model.term_vars model and coeffs = Model.term_coeffs model in
  for i = 0 to Model.num_constrs model - 1 do
    let lhs = ref (Model.constr_constant model i) in
    for p = start.(i) to start.(i + 1) - 1 do
      lhs := !lhs +. (coeffs.(p) *. point.(vars.(p)))
    done;
    let rhs = Model.constr_rhs model i in
    let slack =
      match Model.constr_relation model i with
      | Model.Le -> rhs -. !lhs
      | Model.Ge -> !lhs -. rhs
      | Model.Eq -> -.abs_float (!lhs -. rhs)
    in
    if slack < -.eps then add (Constraint_violated (Model.constr_name model i, -.slack))
  done;
  List.rev !violations

let is_feasible ?eps model point = check ?eps model point = []

let objective_value model point =
  let _, obj = Model.objective model in
  Linexpr.eval (fun i -> point.(i)) obj
