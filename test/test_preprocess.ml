(* Tests for Ec_sat.Preprocess: equisatisfiability, reconstruction,
   and the individual simplifications. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module F = Ec_cnf.Formula
module C = Ec_cnf.Clause
module A = Ec_cnf.Assignment
module O = Ec_sat.Outcome
module P = Ec_sat.Preprocess

let test_units_and_contradiction () =
  let f = F.of_lists ~num_vars:3 [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ] ] in
  (match P.simplify f with
  | `Simplified r ->
    check Alcotest.int "everything propagated away" 0 (F.num_clauses r.P.formula);
    check Alcotest.int "three vars fixed" 3 (List.length r.P.fixed);
    let lifted = P.reconstruct r (A.make 3) in
    check Alcotest.bool "lifted model satisfies" true (A.satisfies lifted f)
  | `Unsat -> Alcotest.fail "satisfiable");
  match P.simplify (F.of_lists ~num_vars:1 [ [ 1 ]; [ -1 ] ]) with
  | `Unsat -> ()
  | `Simplified _ -> Alcotest.fail "contradicting units"

let test_pure_literals () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ 1; 3 ] ] in
  match P.simplify f with
  | `Simplified r ->
    (* v1 is pure positive: both clauses die *)
    check Alcotest.int "clauses gone" 0 (F.num_clauses r.P.formula);
    check Alcotest.bool "v1 fixed true" true (List.mem (1, true) r.P.fixed)
  | `Unsat -> Alcotest.fail "satisfiable"

let test_subsumption () =
  let f = F.of_lists ~num_vars:4 [ [ 1; 2 ]; [ 1; 2; 3 ]; [ 1; 2; 4 ]; [ -1; -2 ] ] in
  match P.simplify f with
  | `Simplified r ->
    (* (1 2) subsumes the two wider clauses; preprocessing may then
       simplify further, but the subsumed ones must be gone *)
    check Alcotest.bool "subsumed removed" true (r.P.clauses_removed >= 2)
  | `Unsat -> Alcotest.fail "satisfiable"

let test_self_subsumption () =
  (* (1 2) and (-1 2 3) with both phases of every variable present so
     pure-literal fixing cannot preempt the strengthening *)
  let f =
    F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 2; 3 ]; [ -3; -2 ]; [ 1; -2 ] ]
  in
  match P.simplify f with
  | `Simplified r -> check Alcotest.bool "literal removed" true (r.P.literals_removed >= 1)
  | `Unsat -> Alcotest.fail "satisfiable"

let test_elimination_reconstructs () =
  (* v2 occurs once positively and once negatively: eliminated *)
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -2; 3 ] ] in
  match P.simplify f with
  | `Simplified r ->
    check Alcotest.bool "something disappeared" true
      (r.P.eliminated <> [] || r.P.fixed <> []);
    (match (Ec_sat.Cdcl.solve_response r.P.formula).outcome with
    | O.Sat a ->
      let lifted = P.reconstruct r a in
      check Alcotest.bool "lifted satisfies original" true (A.satisfies lifted f)
    | O.Unsat | O.Unknown _ -> Alcotest.fail "simplified formula satisfiable")
  | `Unsat -> Alcotest.fail "satisfiable"

let formula_gen =
  QCheck.Gen.(
    let* n = int_range 3 12 in
    let* m = int_range 1 40 in
    let clause =
      let* w = int_range 1 (min 4 n) in
      let* vars = QCheck.Gen.shuffle_l (List.init n (fun i -> i + 1)) in
      let vars = List.filteri (fun i _ -> i < w) vars in
      let* signs = list_repeat w bool in
      return (List.map2 (fun v s -> if s then v else -v) vars signs)
    in
    let* clauses = list_repeat m clause in
    return (F.of_lists ~num_vars:n clauses))

let arb_formula = QCheck.make ~print:F.to_string formula_gen

let prop_equisatisfiable =
  QCheck.Test.make ~name:"preprocess preserves satisfiability" ~count:400 arb_formula
    (fun f ->
      let scratch = O.is_sat (Ec_sat.Cdcl.solve_response f).outcome in
      match P.simplify f with
      | `Unsat -> not scratch
      | `Simplified r -> (
        match (Ec_sat.Cdcl.solve_response r.P.formula).outcome with
        | O.Sat a -> scratch && A.satisfies (P.reconstruct r a) f
        | O.Unsat -> not scratch
        | O.Unknown _ -> false))

let prop_pipeline_equals_scratch =
  QCheck.Test.make ~name:"solve_with_preprocessing = plain cdcl" ~count:300 arb_formula
    (fun f ->
      let a = P.solve_with_preprocessing f in
      let b = (Ec_sat.Cdcl.solve_response f).outcome in
      match (a, b) with
      | O.Sat m, O.Sat _ -> A.satisfies m f
      | O.Unsat, O.Unsat -> true
      | _, _ -> false)

let prop_only_shrinks =
  QCheck.Test.make ~name:"preprocess never grows the formula" ~count:200 arb_formula
    (fun f ->
      match P.simplify f with
      | `Unsat -> true
      | `Simplified r ->
        F.num_clauses r.P.formula <= F.num_clauses f
        && F.num_vars r.P.formula = F.num_vars f)

let tests =
  [ ( "sat.preprocess",
      [ Alcotest.test_case "units" `Quick test_units_and_contradiction;
        Alcotest.test_case "pure literals" `Quick test_pure_literals;
        Alcotest.test_case "subsumption" `Quick test_subsumption;
        Alcotest.test_case "self-subsumption" `Quick test_self_subsumption;
        Alcotest.test_case "elimination + reconstruction" `Quick
          test_elimination_reconstructs;
        qtest prop_equisatisfiable;
        qtest prop_pipeline_equals_scratch;
        qtest prop_only_shrinks ] ) ]
