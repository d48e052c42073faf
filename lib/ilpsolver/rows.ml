type row = {
  coeffs : float array;
  vars : int array;
  ub : float;
  origin : string;
}

type t = {
  nvars : int;
  rows : row array;
  occ_start : int array;
  occ_row : int array;
  occ_coeff : float array;
  obj : float array;
  obj_const : float;
  flip_objective : bool;
}

(* One row from a model's term list, negated when [sign] is -1. *)
let make_row origin sign terms ub =
  let terms = Array.of_list terms in
  { coeffs = Array.map (fun (cf, _) -> sign *. cf) terms; vars = Array.map snd terms; ub; origin }

(* Per-variable occurrences in CSR form, each variable's rows in
   descending order: filled from the last row and last term back. *)
let occurrences nvars rows =
  let occ_start = Array.make (nvars + 1) 0 in
  Array.iter
    (fun row -> Array.iter (fun v -> occ_start.(v + 1) <- occ_start.(v + 1) + 1) row.vars)
    rows;
  for v = 1 to nvars do
    occ_start.(v) <- occ_start.(v) + occ_start.(v - 1)
  done;
  let nnz = occ_start.(nvars) in
  let occ_row = Array.make nnz 0 and occ_coeff = Array.make nnz 0.0 in
  let next = Array.sub occ_start 0 nvars in
  for r = Array.length rows - 1 downto 0 do
    let row = rows.(r) in
    for k = Array.length row.vars - 1 downto 0 do
      let v = row.vars.(k) in
      let p = next.(v) in
      occ_row.(p) <- r;
      occ_coeff.(p) <- row.coeffs.(k);
      next.(v) <- p + 1
    done
  done;
  (occ_start, occ_row, occ_coeff)

let of_model model =
  let nvars = Ec_ilp.Model.num_vars model in
  for i = 0 to nvars - 1 do
    match Ec_ilp.Model.var_kind model i with
    | Ec_ilp.Model.Binary -> ()
    | Ec_ilp.Model.Continuous _ ->
      invalid_arg "Rows.of_model: continuous variable in a 0-1 model"
  done;
  let rows_rev = ref [] in
  let add_row origin sign terms ub = rows_rev := make_row origin sign terms ub :: !rows_rev in
  Array.iter
    (fun (c : Ec_ilp.Model.constr) ->
      let terms = Ec_ilp.Linexpr.terms c.expr in
      let rhs = c.rhs -. Ec_ilp.Linexpr.const_part c.expr in
      match c.relation with
      | Ec_ilp.Model.Le -> add_row c.name 1.0 terms rhs
      | Ec_ilp.Model.Ge -> add_row c.name (-1.0) terms (-.rhs)
      | Ec_ilp.Model.Eq ->
        add_row (c.name ^ "/le") 1.0 terms rhs;
        add_row (c.name ^ "/ge") (-1.0) terms (-.rhs))
    (Ec_ilp.Model.constrs model);
  let rows = Array.of_list (List.rev !rows_rev) in
  let occ_start, occ_row, occ_coeff = occurrences nvars rows in
  let sense, obj_expr = Ec_ilp.Model.objective model in
  let flip_objective = sense = Ec_ilp.Model.Maximize in
  let sign = if flip_objective then -1.0 else 1.0 in
  let obj = Array.make nvars 0.0 in
  List.iter (fun (cf, v) -> obj.(v) <- obj.(v) +. (sign *. cf)) (Ec_ilp.Linexpr.terms obj_expr);
  let obj_const = sign *. Ec_ilp.Linexpr.const_part obj_expr in
  { nvars; rows; occ_start; occ_row; occ_coeff; obj; obj_const; flip_objective }

let min_activity row =
  Array.fold_left (fun acc c -> acc +. Float.min 0.0 c) 0.0 row.coeffs

let report_objective t internal =
  let with_const = internal +. t.obj_const in
  if t.flip_objective then -.with_const else with_const

let row_activity row (point : int array) =
  let acc = ref 0.0 in
  Array.iteri (fun k v -> acc := !acc +. (row.coeffs.(k) *. float_of_int point.(v))) row.vars;
  !acc

let violated_rows ?(eps = 1e-6) t point =
  let out = ref [] in
  Array.iteri
    (fun r row -> if row_activity row point > row.ub +. eps then out := r :: !out)
    t.rows;
  List.rev !out

let point_feasible ?eps t point = violated_rows ?eps t point = []

let internal_objective t point =
  let acc = ref 0.0 in
  Array.iteri (fun v c -> acc := !acc +. (c *. float_of_int point.(v))) t.obj;
  !acc
