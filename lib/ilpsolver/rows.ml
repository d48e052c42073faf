module Model = Ec_ilp.Model

type t = {
  nvars : int;
  row_start : int array;
  row_var : int array;
  row_coeff : float array;
  ub : float array;
  origin : int array;
  occ_start : int array;
  occ_row : int array;
  occ_coeff : float array;
  obj : float array;
  obj_const : float;
  flip_objective : bool;
}

let num_rows t = Array.length t.ub

(* Per-variable occurrences in CSR form, each variable's rows in
   descending order: filled from the last row and last term back. *)
let occurrences nvars row_start row_var row_coeff =
  let occ_start = Array.make (nvars + 1) 0 in
  for p = 0 to Array.length row_var - 1 do
    occ_start.(row_var.(p) + 1) <- occ_start.(row_var.(p) + 1) + 1
  done;
  for v = 1 to nvars do
    occ_start.(v) <- occ_start.(v) + occ_start.(v - 1)
  done;
  let nnz = occ_start.(nvars) in
  let occ_row = Array.make nnz 0 and occ_coeff = Array.make nnz 0.0 in
  let next = Array.sub occ_start 0 nvars in
  for r = Array.length row_start - 2 downto 0 do
    for p = row_start.(r + 1) - 1 downto row_start.(r) do
      let v = row_var.(p) in
      let q = next.(v) in
      occ_row.(q) <- r;
      occ_coeff.(q) <- row_coeff.(p);
      next.(v) <- q + 1
    done
  done;
  (occ_start, occ_row, occ_coeff)

let of_model model =
  let nconstrs = Model.num_constrs model in
  let start = Model.term_start model in
  let vars = Model.term_vars model and coeffs = Model.term_coeffs model in
  (* An [Eq] constraint becomes two rows. *)
  let nrows = ref 0 and nnz = ref 0 in
  for i = 0 to nconstrs - 1 do
    let copies = match Model.constr_relation model i with Model.Eq -> 2 | Model.Le | Model.Ge -> 1 in
    nrows := !nrows + copies;
    nnz := !nnz + (copies * (start.(i + 1) - start.(i)))
  done;
  let row_start = Array.make (!nrows + 1) 0 in
  let row_var = Array.make !nnz 0 and row_coeff = Array.make !nnz 0.0 in
  let ub = Array.make !nrows 0.0 and origin = Array.make !nrows 0 in
  let r = ref 0 in
  let nvars = Model.num_vars model in
  (* Constraint [i] as a [<=] row, negated when [neg]. *)
  let add_row i neg =
    let lo = start.(i) and at = row_start.(!r) in
    let len = start.(i + 1) - lo in
    for k = 0 to len - 1 do
      row_var.(at + k) <- vars.(lo + k);
      row_coeff.(at + k) <- (if neg then -.coeffs.(lo + k) else coeffs.(lo + k))
    done;
    let rhs = Model.constr_rhs model i -. Model.constr_constant model i in
    ub.(!r) <- (if neg then -.rhs else rhs);
    origin.(!r) <- i;
    row_start.(!r + 1) <- at + len;
    incr r
  in
  for i = 0 to nconstrs - 1 do
    match Model.constr_relation model i with
    | Model.Le -> add_row i false
    | Model.Ge -> add_row i true
    | Model.Eq ->
      add_row i false;
      add_row i true
  done;
  let occ_start, occ_row, occ_coeff = occurrences nvars row_start row_var row_coeff in
  let sense, obj_expr = Model.objective model in
  let flip_objective = sense = Model.Maximize in
  let sign = if flip_objective then -1.0 else 1.0 in
  let obj = Array.make nvars 0.0 in
  List.iter (fun (cf, v) -> obj.(v) <- obj.(v) +. (sign *. cf)) (Ec_ilp.Linexpr.terms obj_expr);
  let obj_const = sign *. Ec_ilp.Linexpr.const_part obj_expr in
  { nvars; row_start; row_var; row_coeff; ub; origin; occ_start; occ_row; occ_coeff; obj;
    obj_const; flip_objective }

let report_objective t internal =
  let with_const = internal +. t.obj_const in
  if t.flip_objective then -.with_const else with_const

let row_activity t r (point : int array) =
  let acc = ref 0.0 in
  for p = t.row_start.(r) to t.row_start.(r + 1) - 1 do
    acc := !acc +. (t.row_coeff.(p) *. float_of_int point.(t.row_var.(p)))
  done;
  !acc

let violated_rows ?(eps = 1e-6) t point =
  let out = ref [] in
  for r = num_rows t - 1 downto 0 do
    if row_activity t r point > t.ub.(r) +. eps then out := r :: !out
  done;
  !out

let point_feasible ?eps t point = violated_rows ?eps t point = []

let internal_objective t point =
  let acc = ref 0.0 in
  for v = 0 to t.nvars - 1 do
    acc := !acc +. (t.obj.(v) *. float_of_int point.(v))
  done;
  !acc
