(* Tests for Ec_ilp: Linexpr, Model, Solution, Validate. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module E = Ec_ilp.Linexpr
module M = Ec_ilp.Model
module S = Ec_ilp.Solution
module V = Ec_ilp.Validate

let feq = Alcotest.float 1e-9

(* ---- Linexpr ---- *)

let test_linexpr_normalization () =
  let e = E.of_terms [ (2.0, 1); (3.0, 0); (-2.0, 1) ] in
  check (Alcotest.list (Alcotest.pair feq Alcotest.int)) "merged and pruned"
    [ (3.0, 0) ] (E.terms e);
  check Alcotest.bool "zero scale" true (E.equal E.zero (E.scale 0.0 e));
  check feq "coeff absent" 0.0 (E.coeff e 5);
  check feq "coeff present" 3.0 (E.coeff e 0)

let test_linexpr_arith () =
  let a = E.of_terms ~constant:1.0 [ (2.0, 0); (1.0, 1) ] in
  let b = E.of_terms ~constant:(-1.0) [ (1.0, 0); (-1.0, 2) ] in
  let s = E.add a b in
  check feq "const" 0.0 (E.const_part s);
  check feq "x0" 3.0 (E.coeff s 0);
  check feq "x2" (-1.0) (E.coeff s 2);
  let d = E.sub s b in
  check Alcotest.bool "sub undoes add" true (E.equal d a);
  check Alcotest.bool "sum" true
    (E.equal (E.sum [ a; b ]) s)

let test_linexpr_eval () =
  let e = E.of_terms ~constant:5.0 [ (2.0, 0); (-1.0, 1) ] in
  check feq "eval" 5.0 (E.eval (fun i -> float_of_int (i + 1)) e);
  check Alcotest.bool "is_constant" true (E.is_constant (E.constant 3.0));
  check Alcotest.bool "not constant" false (E.is_constant e)

let test_linexpr_to_string () =
  let e = E.of_terms ~constant:(-2.0) [ (1.0, 0); (-1.0, 1); (2.5, 2) ] in
  check Alcotest.string "rendering" "x0 - x1 + 2.5*x2 - 2" (E.to_string e);
  check Alcotest.string "zero" "0" (E.to_string E.zero)

let prop_eval_linear =
  QCheck.Test.make ~name:"eval is linear in scaling" ~count:200
    QCheck.(pair (float_range (-5.) 5.) (small_list (pair (float_range (-4.) 4.) (int_range 0 6))))
    (fun (k, terms) ->
      let e = E.of_terms terms in
      let v i = float_of_int ((i * 7 mod 5) - 2) in
      abs_float (E.eval v (E.scale k e) -. (k *. E.eval v e)) < 1e-6)

(* ---- Model ---- *)

let test_model_vars () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  let y = M.add_var m in
  check Alcotest.int "ids dense" 1 y;
  check Alcotest.int "count" 2 (M.num_vars m);
  check Alcotest.string "named" "x" (M.var_name m x);
  check Alcotest.string "default name" "x1" (M.var_name m y);
  check Alcotest.int "find_var" x (M.find_var m "x");
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Model: variable id 9 out of range [0,2)") (fun () ->
      ignore (M.var_name m 9))

let test_model_constraints () =
  let m = M.create () in
  let x = M.add_var m in
  M.add_constr m (E.var x) M.Le 1.0;
  M.add_constr m ~name:"lower" (E.var x) M.Ge 0.0;
  check Alcotest.int "count" 2 (M.num_constrs m);
  check Alcotest.string "auto name" "c0" (M.constr_name m 0);
  check Alcotest.string "explicit name" "lower" (M.constr_name m 1);
  Alcotest.check_raises "undeclared variable"
    (Invalid_argument "Model: variable id 5 out of range [0,1)") (fun () ->
      M.add_constr m (E.var 5) M.Le 1.0)

let test_model_objective_default () =
  let m = M.create () in
  let sense, obj = M.objective m in
  check Alcotest.bool "default minimize 0" true
    (sense = M.Minimize && E.equal obj E.zero);
  M.set_objective m M.Maximize (E.constant 1.0);
  let sense, _ = M.objective m in
  check Alcotest.bool "set" true (sense = M.Maximize)

(* ---- Model: flat constraint storage ---- *)

(* A random constraint over variable ids -1 .. nvars + 1: unsorted
   terms with duplicates, zero and cancelling coefficients, an
   optional constant and name. *)
type raw_constr = {
  terms : (float * int) list;
  constant : float;
  relation : M.relation;
  rhs : float;
  name : string option;
}

let raw_model_gen =
  QCheck.Gen.(
    let* nvars = int_range 0 6 in
    let coeff = oneofl [ 0.0; 1.0; -1.0; 2.0; 0.5; -2.5; 3.0 ] in
    let term = pair coeff (int_range (-1) (nvars + 1)) in
    let constr =
      (* short rows, and a few past the insertion-sort cutoff *)
      let* terms = list_size (frequency [ (3, int_range 0 8); (1, int_range 30 45) ]) term in
      (* a term and its negation, so some sums cancel *)
      let* cancel = opt (pair coeff (int_range 0 (max 0 (nvars - 1)))) in
      let terms =
        match cancel with Some (c, x) -> (c, x) :: terms @ [ (-.c, x) ] | None -> terms
      in
      let* constant = oneofl [ 0.0; 0.0; 1.5; -2.0 ] in
      let* relation = oneofl [ M.Le; M.Ge; M.Eq ] in
      let* rhs = oneofl [ 0.0; 1.0; -1.0; 2.5 ] in
      let* name = opt (map (Printf.sprintf "r%d") small_nat) in
      return { terms; constant; relation; rhs; name }
    in
    let* constrs = list_size (int_range 0 12) constr in
    return (nvars, constrs))

let print_raw_model (nvars, constrs) =
  Printf.sprintf "%d vars: %s" nvars
    (String.concat "; "
       (List.map
          (fun c ->
            String.concat " " (List.map (fun (k, x) -> Printf.sprintf "%g*x%d" k x) c.terms))
          constrs))

(* What posting the list through [Linexpr.of_terms] makes of it: the
   exception, or the normalised terms. *)
let reference_post nvars c =
  match E.of_terms ~constant:c.constant c.terms with
  | exception Invalid_argument msg -> Error msg
  | e -> (
    match List.find_opt (fun (_, x) -> x >= nvars) (E.terms e) with
    | Some (_, x) ->
      Error (Printf.sprintf "Model: variable id %d out of range [0,%d)" x nvars)
    | None -> Ok (E.terms e))

let prop_flat_constraints =
  QCheck.Test.make ~name:"stored constraints = Linexpr.of_terms of the posted terms"
    ~count:500
    (QCheck.make ~print:print_raw_model raw_model_gen)
    (fun (nvars, constrs) ->
      let m = M.create () in
      for _ = 1 to nvars do
        ignore (M.add_var m)
      done;
      let posted =
        List.filter
          (fun c ->
            let expected = reference_post nvars c in
            let got =
              match
                M.add_constr_terms m ?name:c.name ~constant:c.constant c.terms c.relation c.rhs
              with
              | () -> Ok ()
              | exception Invalid_argument msg -> Error msg
            in
            match (expected, got) with
            | Ok _, Ok () -> true
            | Error a, Error b when a = b -> false
            | Error a, Error b -> QCheck.Test.fail_reportf "raised %S, want %S" b a
            | Ok _, Error b -> QCheck.Test.fail_reportf "raised %S" b
            | Error a, Ok () -> QCheck.Test.fail_reportf "posted, want %S" a)
          constrs
      in
      M.num_constrs m = List.length posted
      && List.for_all2
           (fun i c ->
             let name = match c.name with Some n -> n | None -> Printf.sprintf "c%d" i in
             reference_post nvars c = Ok (M.constr_terms m i)
             && M.constr_name m i = name
             && M.constr_relation m i = c.relation
             && M.constr_rhs m i = c.rhs
             && M.constr_constant m i = c.constant)
           (List.init (List.length posted) Fun.id)
           posted)

(* [add_constr] is the same path: names and terms read back through
   the flat arrays. *)
let test_model_flat_arrays () =
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  M.add_constr m (E.of_terms [ (2.0, y); (1.0, x) ]) M.Le 2.0;
  M.add_constr_terms m ~name:"pair" [ (1.0, y); (-1.0, x); (1.0, y) ] M.Ge 0.0;
  let start = M.term_start m and vars = M.term_vars m and coeffs = M.term_coeffs m in
  let row i =
    List.init (start.(i + 1) - start.(i)) (fun k -> (coeffs.(start.(i) + k), vars.(start.(i) + k)))
  in
  let terms = Alcotest.(list (pair (float 0.0) int)) in
  check terms "row 0" [ (1.0, x); (2.0, y) ] (row 0);
  check terms "row 1 merged" [ (-1.0, x); (2.0, y) ] (row 1);
  check Alcotest.string "unnamed reads c<i>" "c0" (M.constr_name m 0);
  check Alcotest.string "named" "pair" (M.constr_name m 1);
  Alcotest.check_raises "unknown constraint"
    (Invalid_argument "Model: constraint id 2 out of range [0,2)") (fun () ->
      ignore (M.constr_name m 2))

(* ---- Solution ---- *)

let test_solution_values () =
  let s = { S.status = S.Optimal; values = [| 0.0; 1.0; 0.5 |]; objective = 2.0 } in
  check Alcotest.bool "binary 0" false (S.binary_value s 0);
  check Alcotest.bool "binary 1" true (S.binary_value s 1);
  (match S.binary_value s 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0.5 should not round");
  check Alcotest.bool "has_point" true (S.has_point s);
  check Alcotest.bool "infeasible no point" false (S.has_point S.infeasible);
  (match S.value S.unknown 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown carries no point")

(* ---- Validate ---- *)

let test_validate_feasible () =
  let m = M.create () in
  let x = M.add_var m in
  let y = M.add_var m in
  M.add_constr m ~name:"cap" (E.of_terms [ (1.0, x); (1.0, y) ]) M.Le 1.0;
  check Alcotest.bool "feasible" true (V.is_feasible m [| 1.0; 0.0 |]);
  check Alcotest.bool "infeasible" false (V.is_feasible m [| 1.0; 1.0 |]);
  (match V.check m [| 1.0; 1.0 |] with
  | [ V.Constraint_violated ("cap", by) ] -> check feq "violation amount" 1.0 by
  | other ->
    Alcotest.failf "unexpected violations: %s"
      (String.concat "; " (List.map V.violation_to_string other)))

let test_validate_integrality_bounds () =
  let m = M.create () in
  let x = M.add_var m in
  let y = M.add_var m in
  (match V.check m [| 0.5; 3.0 |] with
  | [ V.Not_integral (v, _); V.Bound_violated (w, _) ] ->
    check Alcotest.int "fractional binary flagged" x v;
    check Alcotest.int "bound flagged" y w
  | other ->
    Alcotest.failf "unexpected: %s"
      (String.concat "; " (List.map V.violation_to_string other)));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Validate.check: point length mismatch") (fun () ->
      ignore (V.check m [| 1.0 |]))

let test_validate_objective () =
  let m = M.create () in
  let x = M.add_var m in
  M.set_objective m M.Maximize (E.of_terms ~constant:1.0 [ (3.0, x) ]);
  check feq "objective value" 4.0 (V.objective_value m [| 1.0 |])

let test_validate_eq_relation () =
  let m = M.create () in
  let x = M.add_var m in
  let y = M.add_var m in
  M.add_constr m (E.of_terms [ (1.0, x); (1.0, y) ]) M.Eq 1.0;
  check Alcotest.bool "eq met" true (V.is_feasible m [| 1.0; 0.0 |]);
  check Alcotest.bool "eq violated high" false (V.is_feasible m [| 1.0; 1.0 |]);
  check Alcotest.bool "eq violated low" false (V.is_feasible m [| 0.0; 0.0 |])

let tests =
  [ ( "ilp.linexpr",
      [ Alcotest.test_case "normalization" `Quick test_linexpr_normalization;
        Alcotest.test_case "arithmetic" `Quick test_linexpr_arith;
        Alcotest.test_case "eval" `Quick test_linexpr_eval;
        Alcotest.test_case "to_string" `Quick test_linexpr_to_string;
        qtest prop_eval_linear ] );
    ( "ilp.model",
      [ Alcotest.test_case "variables" `Quick test_model_vars;
        Alcotest.test_case "constraints" `Quick test_model_constraints;
        Alcotest.test_case "objective default" `Quick test_model_objective_default;
        Alcotest.test_case "flat arrays" `Quick test_model_flat_arrays;
        qtest prop_flat_constraints ] );
    ( "ilp.solution",
      [ Alcotest.test_case "values and statuses" `Quick test_solution_values ] );
    ( "ilp.validate",
      [ Alcotest.test_case "feasibility" `Quick test_validate_feasible;
        Alcotest.test_case "integrality and bounds" `Quick test_validate_integrality_bounds;
        Alcotest.test_case "objective" `Quick test_validate_objective;
        Alcotest.test_case "equality relation" `Quick test_validate_eq_relation ] ) ]
