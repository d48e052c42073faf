(* Tests for Ec_core: Encode, Enabling (vs brute force), Fast_ec,
   Preserving (two engines vs brute force), Backend, Flow. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module F = Ec_cnf.Formula
module C = Ec_cnf.Clause
module A = Ec_cnf.Assignment
module O = Ec_sat.Outcome

let formula_gen ~max_vars ~max_clauses =
  QCheck.Gen.(
    let* n = int_range 3 max_vars in
    let* m = int_range 2 max_clauses in
    let clause =
      let* w = int_range 1 (min 3 n) in
      let* vars = QCheck.Gen.shuffle_l (List.init n (fun i -> i + 1)) in
      let vars = List.filteri (fun i _ -> i < w) vars in
      let* signs = list_repeat w bool in
      return (List.map2 (fun v s -> if s then v else -v) vars signs)
    in
    let* clauses = list_repeat m clause in
    return (F.of_lists ~num_vars:n clauses))

let arb_formula = QCheck.make ~print:F.to_string (formula_gen ~max_vars:8 ~max_clauses:20)

(* all DC-aware assignments of n variables *)
let enum_assignments n =
  let rec go v acc =
    if v > n then [ acc ]
    else
      List.concat_map
        (fun value -> go (v + 1) (A.set acc v value))
        [ A.True; A.False; A.Dc ]
  in
  go 1 (A.make n)

(* ---- Encode ---- *)

let test_encode_structure () =
  let f = F.of_lists ~num_vars:3 [ [ 1; -2 ]; [ 2; 3 ] ] in
  let enc = Ec_core.Encode.of_formula f in
  let m = Ec_core.Encode.model enc in
  check Alcotest.int "variables: 2 per CNF var" 6 (Ec_ilp.Model.num_vars m);
  (* 2 covering + 3 exclusion rows *)
  check Alcotest.int "constraints" 5 (Ec_ilp.Model.num_constrs m);
  check Alcotest.int "pos id" 0 (Ec_core.Encode.pos_var enc 1);
  check Alcotest.int "neg id" 3 (Ec_core.Encode.neg_var enc 1);
  check Alcotest.int "lit var" 4 (Ec_core.Encode.lit_var enc (-2));
  Alcotest.check_raises "range" (Invalid_argument "Encode: variable v4 out of range")
    (fun () -> ignore (Ec_core.Encode.pos_var enc 4))

let test_encode_point_roundtrip () =
  let f = F.of_lists ~num_vars:3 [ [ 1; -2 ]; [ 2; 3 ] ] in
  let enc = Ec_core.Encode.of_formula f in
  let a = A.of_list 3 [ (1, true); (2, false) ] in
  let p = Ec_core.Encode.point_of_assignment enc a in
  let a2 = Ec_core.Encode.assignment_of_point enc p in
  check Alcotest.bool "roundtrip" true (A.equal a a2);
  Alcotest.check_raises "both phases rejected"
    (Invalid_argument "Encode.assignment_of_point: both phases of v1") (fun () ->
      let bad = Array.copy p in
      bad.(0) <- 1.0;
      bad.(3) <- 1.0;
      ignore (Ec_core.Encode.assignment_of_point enc bad))

let prop_encode_solutions_satisfy =
  QCheck.Test.make ~name:"encode: ILP-feasible points decode to models" ~count:200
    arb_formula (fun f ->
      let enc = Ec_core.Encode.of_formula f in
      let solution = (Ec_ilpsolver.Bnb.solve_response (Ec_core.Encode.model enc)).solution in
      match Ec_core.Encode.decode enc solution with
      | Some a -> A.satisfies a f
      | None ->
        (* ILP infeasible <=> CNF unsatisfiable *)
        not (O.is_sat (Ec_sat.Cdcl.solve_response f).outcome))

let prop_encode_objective_counts_phases =
  QCheck.Test.make ~name:"encode: optimal objective = selected phases" ~count:100
    arb_formula (fun f ->
      let enc = Ec_core.Encode.of_formula f in
      let solution = (Ec_ilpsolver.Bnb.solve_response (Ec_core.Encode.model enc)).solution in
      match Ec_core.Encode.decode enc solution with
      | Some a ->
        abs_float
          (solution.Ec_ilp.Solution.objective
          -. float_of_int (List.length (A.assigned_vars a)))
        < 1e-6
      | None -> true)

(* ---- Enabling ---- *)

let prop_enabling_matches_brute_force =
  QCheck.Test.make ~name:"enabling SC feasibility = exhaustive search" ~count:60
    (QCheck.make ~print:F.to_string (formula_gen ~max_vars:6 ~max_clauses:12))
    (fun f ->
      let brute =
        List.exists
          (fun a -> A.satisfies a f && Ec_core.Enabling.verify f a)
          (enum_assignments (F.num_vars f))
      in
      let enc = Ec_core.Encode.of_formula f in
      ignore (Ec_core.Enabling.add Ec_core.Enabling.Constraints enc);
      let solution =
        (Ec_ilpsolver.Bnb.solve_decision_response (Ec_core.Encode.model enc)).solution
      in
      let ilp = Ec_ilp.Solution.has_point solution in
      let decoded_ok =
        match Ec_core.Encode.decode enc solution with
        | Some a -> Ec_core.Enabling.verify f a
        | None -> true
      in
      brute = ilp && decoded_ok)

let test_enabling_of_scores () =
  (* OF mode must stay feasible even when SC is infeasible *)
  let f =
    (* strict XOR of 3 vars: provably not 2-enableable *)
    F.of_lists ~num_vars:3
      [ [ 1; 2; 3 ]; [ 1; -2; -3 ]; [ -1; 2; -3 ]; [ -1; -2; 3 ] ]
  in
  let enc_sc = Ec_core.Encode.of_formula f in
  ignore (Ec_core.Enabling.add Ec_core.Enabling.Constraints enc_sc);
  let sc = (Ec_ilpsolver.Bnb.solve_decision_response (Ec_core.Encode.model enc_sc)).solution in
  check Alcotest.string "xor has no enabled solution" "infeasible"
    (Ec_ilp.Solution.status_to_string sc.Ec_ilp.Solution.status);
  let enc_of = Ec_core.Encode.of_formula f in
  let info = Ec_core.Enabling.add (Ec_core.Enabling.Objective 1.0) enc_of in
  check Alcotest.bool "OF adds score vars" true (info.Ec_core.Enabling.score_vars > 0);
  let of_ = (Ec_ilpsolver.Bnb.solve_response (Ec_core.Encode.model enc_of)).solution in
  check Alcotest.bool "OF stays solvable" true (Ec_ilp.Solution.has_point of_);
  match Ec_core.Encode.decode enc_of of_ with
  | Some a -> check Alcotest.bool "OF solution satisfies" true (A.satisfies a f)
  | None -> Alcotest.fail "OF must decode"

let test_enabling_k1_trivial () =
  (* k = 1 adds no strength beyond satisfiability *)
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let enc = Ec_core.Encode.of_formula f in
  ignore (Ec_core.Enabling.add ~k:1 Ec_core.Enabling.Constraints enc);
  let s = (Ec_ilpsolver.Bnb.solve_decision_response (Ec_core.Encode.model enc)).solution in
  check Alcotest.bool "k=1 solvable" true (Ec_ilp.Solution.has_point s);
  Alcotest.check_raises "k=0 rejected" (Invalid_argument "Enabling.add: k must be >= 1")
    (fun () -> ignore (Ec_core.Enabling.add ~k:0 Ec_core.Enabling.Constraints (Ec_core.Encode.of_formula f)))

let test_enabling_verify_negative () =
  let f = F.of_lists ~num_vars:2 [ [ 1 ]; [ -1; 2 ] ] in
  (* v1 must be true; clause (v1) is 1-sat with no support possible *)
  let a = A.of_list 2 [ (1, true); (2, true) ] in
  check Alcotest.bool "unit clause can never be flexible" false
    (Ec_core.Enabling.verify f a)

(* ---- Fast_ec ---- *)

let test_fast_ec_already_satisfied () =
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let a = A.of_list 2 [ (1, true) ] in
  let s = Ec_core.Fast_ec.simplify f a in
  check Alcotest.bool "already satisfied" true s.Ec_core.Fast_ec.already_satisfied;
  let r = Ec_core.Fast_ec.resolve f a in
  check Alcotest.bool "solution is the input" true
    (match r.Ec_core.Fast_ec.solution with Some b -> A.equal a b | None -> false)

let test_fast_ec_cone_contains_unsat () =
  let f = F.of_lists ~num_vars:4 [ [ 1; 2 ]; [ 3; 4 ]; [ -1; 3 ] ] in
  let a = A.of_list 4 [ (1, true); (3, true) ] in
  (* break clause 1 by eliminating its support *)
  let f' = F.add_clause f (C.make [ -3 ]) in
  let a' = A.extend a (F.num_vars f') in
  let s = Ec_core.Fast_ec.simplify f' a' in
  check Alcotest.bool "not satisfied" false s.Ec_core.Fast_ec.already_satisfied;
  check Alcotest.bool "v3 in cone" true (List.mem 3 s.Ec_core.Fast_ec.vars)

let prop_fast_ec_merge_satisfies =
  QCheck.Test.make ~name:"fast EC merge satisfies the modified formula" ~count:150
    arb_formula (fun f ->
      match (Ec_sat.Cdcl.solve_response f).outcome with
      | O.Unsat | O.Unknown _ -> QCheck.assume_fail ()
      | O.Sat a ->
        let rng = Ec_util.Rng.create 7 in
        let script = Ec_cnf.Change.fast_ec_script rng f ~eliminate:1 ~add:3 ~clause_width:2 in
        let f' = Ec_cnf.Change.apply_script f script in
        let p = A.extend a (F.num_vars f') in
        let r = Ec_core.Fast_ec.resolve ~backend:Ec_core.Backend.cdcl f' p in
        (match r.Ec_core.Fast_ec.solution with
        | Some merged -> A.satisfies merged f'
        | None ->
          (* cone unsat: legal (fast EC is incomplete); nothing to check *)
          true))

let prop_fast_ec_safe_clauses_stay_satisfied =
  (* clauses outside the cone keep their satisfying literal *)
  QCheck.Test.make ~name:"fast EC: unmarked clauses satisfied by untouched vars"
    ~count:150 arb_formula (fun f ->
      match (Ec_sat.Cdcl.solve_response f).outcome with
      | O.Unsat | O.Unknown _ -> QCheck.assume_fail ()
      | O.Sat a ->
        let f' = F.add_clause f (C.make [ -1; -2 ]) in
        let p = A.extend a (F.num_vars f') in
        let s = Ec_core.Fast_ec.simplify f' p in
        s.Ec_core.Fast_ec.already_satisfied
        || List.for_all
             (fun i ->
               List.mem i s.Ec_core.Fast_ec.marked
               || C.exists
                    (fun l ->
                      (not (List.mem (Ec_cnf.Lit.var l) s.Ec_core.Fast_ec.vars))
                      && A.lit_true p l)
                    (F.clause f' i))
             (List.init (F.num_clauses f') Fun.id))

let test_fast_ec_refresh () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ] ] in
  let a = A.of_list 3 [ (1, true); (2, true); (3, false) ] in
  let r = Ec_core.Fast_ec.refresh f a in
  check Alcotest.bool "still satisfies" true (A.satisfies r f);
  check Alcotest.bool "recovered DCs" true (A.dc_count r >= 2)

(* ---- Preserving ---- *)

(* brute-force optimum of preserved count among DC-aware models *)
let brute_best_preserved f reference =
  let models =
    List.filter (fun a -> A.satisfies a f) (enum_assignments (F.num_vars f))
  in
  List.fold_left
    (fun best a -> max best (A.preserved_count ~old_assignment:reference a))
    (-1) models

let all_preserving_engines =
  [ Ec_core.Preserving.default_engine;
    Ec_core.Preserving.Ilp_iterative Ec_ilpsolver.Bnb.default_options;
    Ec_core.Preserving.Sat_cardinality Ec_sat.Cdcl.default_options;
    Ec_core.Preserving.Sat_maxsat Ec_sat.Maxsat.default_options ]

let prop_preserving_engines_optimal =
  QCheck.Test.make ~name:"preserving: all four engines match brute force" ~count:40
    (QCheck.make ~print:F.to_string (formula_gen ~max_vars:5 ~max_clauses:10))
    (fun f ->
      match (Ec_sat.Cdcl.solve_response f).outcome with
      | O.Unsat | O.Unknown _ -> QCheck.assume_fail ()
      | O.Sat reference ->
        let best = brute_best_preserved f reference in
        List.for_all
          (fun engine ->
            let r = Ec_core.Preserving.resolve ~engine f ~reference in
            r.Ec_core.Preserving.preserved = best
            && r.Ec_core.Preserving.optimal
            && (match r.Ec_core.Preserving.solution with
               | Some a -> A.satisfies a f
               | None -> false))
          all_preserving_engines)

let test_preserving_paper_example () =
  (* §7: F plus two clauses; best preservation is 4 of 5 *)
  let f =
    F.of_lists ~num_vars:5
      [ [ 1; 2; 4 ]; [ 1; 4; -5 ]; [ -1; -3; 4 ]; [ 2; 3; 5 ]; [ -2; 4; 5 ]; [ 3; -4; 5 ] ]
  in
  let s = A.of_list 5 [ (1, true); (2, true); (3, false); (4, false); (5, true) ] in
  check Alcotest.bool "S satisfies F" true (A.satisfies s f);
  let f' = F.add_clauses f [ C.make [ -2; 3; 4 ]; C.make [ 1; -2; -5 ] ] in
  check Alcotest.bool "S broken by the change" false (A.satisfies s f');
  let r = Ec_core.Preserving.resolve f' ~reference:s in
  check Alcotest.int "keeps 4 of 5" 4 r.Ec_core.Preserving.preserved;
  check Alcotest.bool "optimal" true r.Ec_core.Preserving.optimal

let test_preserving_pins () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let reference = A.of_list 3 [ (1, true); (2, false); (3, true) ] in
  (* pin v1=true in both engines *)
  List.iter
    (fun engine ->
      let r = Ec_core.Preserving.resolve ~engine ~pins:[ 1 ] f ~reference in
      match r.Ec_core.Preserving.solution with
      | Some a -> check Alcotest.bool "pin held" true (A.value a 1 = A.True)
      | None -> Alcotest.fail "feasible with pin")
    all_preserving_engines;
  (* contradictory pin: v1 pinned but formula forces it *)
  let g = F.of_lists ~num_vars:1 [ [ 1 ] ] in
  let ref_neg = A.of_list 1 [ (1, false) ] in
  let r = Ec_core.Preserving.resolve ~pins:[ 1 ] g ~reference:ref_neg in
  check Alcotest.bool "contradictory pin infeasible" true
    (r.Ec_core.Preserving.solution = None)

let test_preserving_dc_pin () =
  (* a DC pin forces the variable to stay DC in both engines *)
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let reference = A.of_list 2 [ (1, true) ] in
  List.iter
    (fun engine ->
      let r = Ec_core.Preserving.resolve ~engine ~pins:[ 2 ] f ~reference in
      match r.Ec_core.Preserving.solution with
      | Some a -> check Alcotest.bool "v2 stays DC" true (A.value a 2 = A.Dc)
      | None -> Alcotest.fail "feasible")
    all_preserving_engines

(* ---- Backend ---- *)

let prop_backends_agree =
  QCheck.Test.make ~name:"all four backends agree on satisfiability" ~count:60
    (QCheck.make ~print:F.to_string (formula_gen ~max_vars:7 ~max_clauses:16))
    (fun f ->
      let verdict = function
        | O.Sat a -> if A.satisfies a f then `Sat else `Broken
        | O.Unsat -> `Unsat
        | O.Unknown _ -> `Unknown
      in
      let verdicts =
        List.map
          (fun b -> verdict (Ec_core.Backend.solve_response b f).outcome)
          [ Ec_core.Backend.cdcl; Ec_core.Backend.ilp_exact ]
        @ [ verdict (Dpll.solve f) ]
      in
      match verdicts with
      | [ a; b; c ] -> a <> `Broken && a = b && b = c
      | _ -> false)

let test_backend_heuristic_sound () =
  let f = F.of_lists ~num_vars:4 [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 4 ] ] in
  (match (Ec_core.Backend.solve_response Ec_core.Backend.ilp_heuristic f).outcome with
  | O.Sat a -> check Alcotest.bool "model valid" true (A.satisfies a f)
  | O.Unknown _ -> () (* allowed for an incomplete engine *)
  | O.Unsat -> Alcotest.fail "heuristic must not claim unsat");
  check Alcotest.string "name" "ilp-heuristic"
    (Ec_core.Backend.name Ec_core.Backend.ilp_heuristic)

let test_backend_empty_clause () =
  let f = F.create ~num_vars:1 [ C.make [] ] in
  List.iter
    (fun b ->
      check Alcotest.string "empty clause unsat" "unsat"
        (O.to_string (Ec_core.Backend.solve_response b f).outcome))
    [ Ec_core.Backend.cdcl; Ec_core.Backend.ilp_exact; Ec_core.Backend.ilp_heuristic;
      Ec_core.Backend.maxsat ]

(* ---- Flow ---- *)

let test_flow_end_to_end () =
  let f =
    F.of_lists ~num_vars:5 [ [ 1; -3; -5 ]; [ 2; -3; -5 ]; [ 2; 4; 5 ]; [ -3; -4 ] ]
  in
  match Ec_core.Flow.solve_initial ~enable:Ec_core.Enabling.Constraints f with
  | None -> Alcotest.fail "paper instance is enableable"
  | Some init ->
    check Alcotest.bool "enabled" true init.Ec_core.Flow.enabled;
    check (Alcotest.float 1e-9) "flexibility 1.0" 1.0 init.Ec_core.Flow.flexibility;
    (match
       (Ec_core.Flow.apply_change_response init [ Ec_cnf.Change.Eliminate_var 3 ]).result
     with
    | Some u ->
      check Alcotest.bool "new solution valid" true
        (A.satisfies u.Ec_core.Flow.new_assignment u.Ec_core.Flow.new_formula)
    | None -> Alcotest.fail "fast EC should handle v3 elimination");
    (* preserving strategy *)
    (match
       (Ec_core.Flow.apply_change_response
         ~strategy:(Ec_core.Flow.Preserve Ec_core.Preserving.default_engine) init
         [ Ec_cnf.Change.Add_clause (C.make [ -2; -4 ]) ]).result
     with
    | Some u ->
      check Alcotest.bool "preserve valid" true
        (A.satisfies u.Ec_core.Flow.new_assignment u.Ec_core.Flow.new_formula)
    | None -> Alcotest.fail "satisfiable change");
    (* full strategy *)
    match (Ec_core.Flow.apply_change_response ~strategy:Ec_core.Flow.Full init []).result with
    | Some u ->
      check (Alcotest.float 1e-9) "empty change, full resolve still valid" 1.0
        (if A.satisfies u.Ec_core.Flow.new_assignment u.Ec_core.Flow.new_formula then 1.0
         else 0.0)
    | None -> Alcotest.fail "no-op change solvable"

let test_flow_unsat_change () =
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  match Ec_core.Flow.solve_initial f with
  | None -> Alcotest.fail "satisfiable"
  | Some init -> (
    match
      (Ec_core.Flow.apply_change_response init
        [ Ec_cnf.Change.Add_clause (C.make [ 1 ]);
          Ec_cnf.Change.Add_clause (C.make [ -1 ]);
          Ec_cnf.Change.Add_clause (C.make [ 2 ]);
          Ec_cnf.Change.Add_clause (C.make [ -2 ]) ]).result
    with
    | None -> ()
    | Some _ -> Alcotest.fail "contradictory change must fail")

(* Each strategy runs one solver on the calling domain; [~jobs] is
   accepted only as 1. *)
let test_flow_jobs_must_be_one () =
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  match Ec_core.Flow.solve_initial f with
  | None -> Alcotest.fail "satisfiable"
  | Some init ->
    Alcotest.(check bool) "jobs 1 answers" true
      ((Ec_core.Flow.apply_change_response ~jobs:1 init []).result <> None);
    List.iter
      (fun jobs ->
        match Ec_core.Flow.apply_change_response ~jobs init [] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "~jobs:%d must raise Invalid_argument" jobs)
      [ 2; 0 ]

let tests =
  [ ( "core.encode",
      [ Alcotest.test_case "structure" `Quick test_encode_structure;
        Alcotest.test_case "point roundtrip" `Quick test_encode_point_roundtrip;
        qtest prop_encode_solutions_satisfy;
        qtest prop_encode_objective_counts_phases ] );
    ( "core.enabling",
      [ Alcotest.test_case "OF survives SC-infeasible" `Quick test_enabling_of_scores;
        Alcotest.test_case "k=1 trivial, k=0 rejected" `Quick test_enabling_k1_trivial;
        Alcotest.test_case "verify rejects rigid" `Quick test_enabling_verify_negative;
        qtest prop_enabling_matches_brute_force ] );
    ( "core.fast_ec",
      [ Alcotest.test_case "already satisfied" `Quick test_fast_ec_already_satisfied;
        Alcotest.test_case "cone contains breakage" `Quick test_fast_ec_cone_contains_unsat;
        Alcotest.test_case "refresh" `Quick test_fast_ec_refresh;
        qtest prop_fast_ec_merge_satisfies;
        qtest prop_fast_ec_safe_clauses_stay_satisfied ] );
    ( "core.preserving",
      [ Alcotest.test_case "paper §7 example" `Quick test_preserving_paper_example;
        Alcotest.test_case "pins" `Quick test_preserving_pins;
        Alcotest.test_case "DC pins" `Quick test_preserving_dc_pin;
        qtest prop_preserving_engines_optimal ] );
    ( "core.backend",
      [ Alcotest.test_case "heuristic soundness" `Quick test_backend_heuristic_sound;
        Alcotest.test_case "empty clause" `Quick test_backend_empty_clause;
        qtest prop_backends_agree ] );
    ( "core.flow",
      [ Alcotest.test_case "end to end" `Quick test_flow_end_to_end;
        Alcotest.test_case "unsatisfiable change" `Quick test_flow_unsat_change;
        Alcotest.test_case "jobs other than 1 rejected" `Quick test_flow_jobs_must_be_one ] ) ]
