type objective = Minimize_selected_phases | No_objective

type t = {
  formula : Ec_cnf.Formula.t;
  model : Ec_ilp.Model.t;
  n : int; (* CNF variables; phases are ids [0,n) positive, [n,2n) negative *)
}

let of_formula ?(objective = Minimize_selected_phases) formula =
  let n = Ec_cnf.Formula.num_vars formula in
  let model = Ec_ilp.Model.create () in
  for v = 1 to n do
    ignore (Ec_ilp.Model.add_var model ~name:(Printf.sprintf "x%d" v) Ec_ilp.Model.Binary)
  done;
  for v = 1 to n do
    ignore (Ec_ilp.Model.add_var model ~name:(Printf.sprintf "x%d'" v) Ec_ilp.Model.Binary)
  done;
  let lit_id l =
    let v = Ec_cnf.Lit.var l in
    if Ec_cnf.Lit.is_positive l then v - 1 else n + v - 1
  in
  (* Covering row per clause (5). *)
  Ec_cnf.Formula.iteri
    (fun i c ->
      let terms =
        Ec_cnf.Clause.fold (fun acc l -> (1.0, lit_id l) :: acc) [] c
      in
      Ec_ilp.Model.add_constr model
        ~name:(Printf.sprintf "clause%d" i)
        (Ec_ilp.Linexpr.of_terms terms)
        Ec_ilp.Model.Ge 1.0)
    formula;
  (* Exclusion row per variable (6). *)
  for v = 1 to n do
    Ec_ilp.Model.add_constr model
      ~name:(Printf.sprintf "excl%d" v)
      (Ec_ilp.Linexpr.of_terms [ (1.0, v - 1); (1.0, n + v - 1) ])
      Ec_ilp.Model.Le 1.0
  done;
  (match objective with
  | No_objective -> ()
  | Minimize_selected_phases ->
    let terms = List.init (2 * n) (fun i -> (1.0, i)) in
    Ec_ilp.Model.set_objective model Ec_ilp.Model.Minimize (Ec_ilp.Linexpr.of_terms terms));
  { formula; model; n }

let formula t = t.formula

let model t = t.model

let num_cnf_vars t = t.n

let check_var t v =
  if v < 1 || v > t.n then invalid_arg (Printf.sprintf "Encode: variable v%d out of range" v)

let pos_var t v =
  check_var t v;
  v - 1

let neg_var t v =
  check_var t v;
  t.n + v - 1

let lit_var t l =
  if Ec_cnf.Lit.is_positive l then pos_var t (Ec_cnf.Lit.var l)
  else neg_var t (Ec_cnf.Lit.var l)

let assignment_of_point t point =
  if Array.length point < 2 * t.n then
    invalid_arg "Encode.assignment_of_point: point too short";
  Ec_cnf.Assignment.init t.n (fun v ->
      let p = point.(v - 1) > 0.5 and q = point.(t.n + v - 1) > 0.5 in
      match (p, q) with
      | true, true ->
        invalid_arg (Printf.sprintf "Encode.assignment_of_point: both phases of v%d" v)
      | true, false -> Ec_cnf.Assignment.True
      | false, true -> Ec_cnf.Assignment.False
      | false, false -> Ec_cnf.Assignment.Dc)

let point_of_assignment t a =
  let point = Array.make (Ec_ilp.Model.num_vars t.model) 0.0 in
  let upto = min t.n (Ec_cnf.Assignment.num_vars a) in
  for v = 1 to upto do
    match Ec_cnf.Assignment.value a v with
    | Ec_cnf.Assignment.True -> point.(v - 1) <- 1.0
    | Ec_cnf.Assignment.False -> point.(t.n + v - 1) <- 1.0
    | Ec_cnf.Assignment.Dc -> ()
  done;
  point

let decode t (solution : Ec_ilp.Solution.t) =
  if Ec_ilp.Solution.has_point solution then Some (assignment_of_point t solution.values)
  else None
