type status = Optimal | Feasible | Infeasible | Unknown

type t = {
  status : status;
  values : float array;
  objective : float;
}

let status_to_string = function
  | Optimal -> "optimal"
  | Feasible -> "feasible"
  | Infeasible -> "infeasible"
  | Unknown -> "unknown"

let has_point t = match t.status with Optimal | Feasible -> true | Infeasible | Unknown -> false

let value t i =
  if not (has_point t) then invalid_arg "Solution.value: no point";
  if i < 0 || i >= Array.length t.values then invalid_arg "Solution.value: index";
  t.values.(i)

let binary_value ?(eps = 1e-6) t i =
  let x = value t i in
  if abs_float x <= eps then false
  else if abs_float (x -. 1.0) <= eps then true
  else invalid_arg (Printf.sprintf "Solution.binary_value: %g is not 0/1" x)

let infeasible = { status = Infeasible; values = [||]; objective = 0.0 }

let unknown = { status = Unknown; values = [||]; objective = 0.0 }
