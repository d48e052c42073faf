(* Tests for Ec_core.Cnfize: exact CNF translation of ±1-coefficient
   0-1 models, cross-checked against branch & bound. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module M = Ec_ilp.Model
module E = Ec_ilp.Linexpr
module C = Ec_core.Cnfize

let test_simple_rows () =
  let m = M.create () in
  let x = M.add_var m in
  let y = M.add_var m in
  let z = M.add_var m in
  (* x + y + z >= 2;  x + y <= 1 *)
  M.add_constr m (E.of_terms [ (1.0, x); (1.0, y); (1.0, z) ]) M.Ge 2.0;
  M.add_constr m (E.of_terms [ (1.0, x); (1.0, y) ]) M.Le 1.0;
  let cnf = C.of_model m in
  (match (Ec_sat.Cdcl.solve_response cnf.C.formula).outcome with
  | Ec_sat.Outcome.Sat a ->
    let p = C.point_of_assignment cnf a in
    check Alcotest.bool "point feasible" true (Ec_ilp.Validate.is_feasible m p);
    check (Alcotest.float 1e-9) "z forced" 1.0 p.(z)
  | _ -> Alcotest.fail "satisfiable")

let test_infeasible_row () =
  let m = M.create () in
  let x = M.add_var m in
  M.add_constr m (E.of_terms [ (1.0, x) ]) M.Ge 2.0;
  let cnf = C.of_model m in
  check Alcotest.string "trivially unsat" "unsat"
    (Ec_sat.Outcome.to_string (Ec_sat.Cdcl.solve_response cnf.C.formula).outcome)

let test_unsupported () =
  let m = M.create () in
  let x = M.add_var m in
  M.add_constr m (E.of_terms [ (2.0, x) ]) M.Le 1.0;
  check Alcotest.bool "general coefficients rejected" false (C.supported m);
  (match C.of_model m with
  | exception C.Unsupported _ -> ()
  | _ -> Alcotest.fail "must raise")

let test_negative_coefficients () =
  let m = M.create () in
  let x = M.add_var m in
  let y = M.add_var m in
  (* x - y <= -1  <=>  x=0, y=1 *)
  M.add_constr m (E.of_terms [ (1.0, x); (-1.0, y) ]) M.Le (-1.0);
  let cnf = C.of_model m in
  match (Ec_sat.Cdcl.solve_response cnf.C.formula).outcome with
  | Ec_sat.Outcome.Sat a ->
    let p = C.point_of_assignment cnf a in
    check (Alcotest.float 1e-9) "x" 0.0 p.(x);
    check (Alcotest.float 1e-9) "y" 1.0 p.(y)
  | _ -> Alcotest.fail "satisfiable"

(* random ±1 models: CNF satisfiability must equal B&B feasibility,
   and decoded points must validate *)
let prop_cnfize_equisatisfiable =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 7 in
      let* nrows = int_range 1 8 in
      let row =
        let* terms =
          list_repeat n (oneofl [ Some 1.0; Some (-1.0); None; None ])
        in
        let* rel = oneofl [ M.Le; M.Ge; M.Eq ] in
        let* rhs = map float_of_int (int_range (-2) 3) in
        return (terms, rel, rhs)
      in
      let* rows = list_repeat nrows row in
      return (n, rows))
  in
  QCheck.Test.make ~name:"cnfize equisatisfiable with bnb" ~count:300 (QCheck.make gen)
    (fun (n, rows) ->
      let m = M.create () in
      for _ = 1 to n do
        ignore (M.add_var m)
      done;
      List.iter
        (fun (terms, rel, rhs) ->
          let terms =
            List.filteri (fun i _ -> i < n) terms
            |> List.mapi (fun i c -> Option.map (fun c -> (c, i)) c)
            |> List.filter_map Fun.id
          in
          if terms <> [] then M.add_constr m (E.of_terms terms) rel rhs)
        rows;
      let bnb = (Ec_ilpsolver.Bnb.solve_decision_response m).solution in
      let cnf = C.of_model m in
      match
        ((Ec_sat.Cdcl.solve_response cnf.C.formula).outcome, Ec_ilp.Solution.has_point bnb)
      with
      | Ec_sat.Outcome.Sat a, true ->
        Ec_ilp.Validate.is_feasible m (C.point_of_assignment cnf a)
      | Ec_sat.Outcome.Unsat, false -> true
      | _, _ -> false)

(* the flagship use: enabling models solved through the CDCL backend *)
let test_enabling_model_via_cdcl () =
  let inst =
    Ec_instances.Registry.build
      (Ec_instances.Registry.scale 0.15 (Ec_instances.Registry.find "jnh201"))
  in
  let enc = Ec_core.Encode.of_formula inst.formula in
  ignore (Ec_core.Enabling.add Ec_core.Enabling.Constraints enc);
  let model = Ec_core.Encode.model enc in
  check Alcotest.bool "enabling model is clause-like" true (C.supported model);
  let solution = (Ec_core.Backend.solve_model_response Ec_core.Backend.cdcl model).solution in
  check Alcotest.bool "solved" true (Ec_ilp.Solution.has_point solution);
  match Ec_core.Encode.decode enc solution with
  | Some a ->
    check Alcotest.bool "decoded solution is enabled" true
      (Ec_core.Enabling.verify inst.formula a)
  | None -> Alcotest.fail "decodable"

let test_preserving_model_unsupported_is_handled () =
  (* the cnfize fragment covers our models; a synthetic general row
     must route to the B&B fallback inside Backend.solve_model_response *)
  let m = M.create () in
  let x = M.add_var m in
  M.add_constr m (E.of_terms [ (3.0, x) ]) M.Le 2.0;
  M.set_objective m M.Minimize (E.var x);
  let s = (Ec_core.Backend.solve_model_response Ec_core.Backend.cdcl m).solution in
  check Alcotest.bool "fallback solved it" true (Ec_ilp.Solution.has_point s);
  check (Alcotest.float 1e-9) "x forced to 0" 0.0 (Ec_ilp.Solution.value s x)

let tests =
  [ ( "core.cnfize",
      [ Alcotest.test_case "simple rows" `Quick test_simple_rows;
        Alcotest.test_case "infeasible row" `Quick test_infeasible_row;
        Alcotest.test_case "unsupported coefficients" `Quick test_unsupported;
        Alcotest.test_case "negative coefficients" `Quick test_negative_coefficients;
        Alcotest.test_case "enabling model via CDCL backend" `Quick
          test_enabling_model_via_cdcl;
        Alcotest.test_case "fallback for general rows" `Quick
          test_preserving_model_unsupported_is_handled;
        qtest prop_cnfize_equisatisfiable ] ) ]
