(* Tests for Ec_sat: Cdcl (cross-checked against the test suite's
   DPLL oracle and brute force), Cardinality, Minimize — and the DPLL
   oracle itself against brute force. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module F = Ec_cnf.Formula
module C = Ec_cnf.Clause
module A = Ec_cnf.Assignment
module O = Ec_sat.Outcome

(* ---- random formula generator ---- *)

let formula_gen ~max_vars ~max_clauses =
  QCheck.Gen.(
    let* n = int_range 2 max_vars in
    let* m = int_range 1 max_clauses in
    let clause =
      let* w = int_range 1 (min 3 n) in
      let* vars = QCheck.Gen.shuffle_l (List.init n (fun i -> i + 1)) in
      let vars = List.filteri (fun i _ -> i < w) vars in
      let* signs = list_repeat w bool in
      return (List.map2 (fun v s -> if s then v else -v) vars signs)
    in
    let* clauses = list_repeat m clause in
    return (F.of_lists ~num_vars:n clauses))

let arb_formula =
  QCheck.make ~print:F.to_string (formula_gen ~max_vars:10 ~max_clauses:30)

(* exhaustive satisfiability for n <= 16 *)
let brute_sat f =
  let n = F.num_vars f in
  let rec loop mask =
    if mask >= 1 lsl n then false
    else begin
      let a =
        A.of_bool_list (List.init n (fun i -> mask land (1 lsl i) <> 0))
      in
      A.satisfies a f || loop (mask + 1)
    end
  in
  F.num_clauses f = 0 || loop 0

(* ---- Dpll ---- *)

let prop_dpll_correct =
  QCheck.Test.make ~name:"dpll = brute force" ~count:300 arb_formula (fun f ->
      match Dpll.solve f with
      | O.Sat a -> A.satisfies a f
      | O.Unsat -> not (brute_sat f)
      | O.Unknown _ -> false)

let test_dpll_trivial () =
  check Alcotest.string "empty formula" "sat"
    (O.to_string (Dpll.solve (F.of_lists ~num_vars:3 [])));
  check Alcotest.string "empty clause" "unsat"
    (O.to_string (Dpll.solve (F.create ~num_vars:1 [ C.make [] ])))

(* ---- Cdcl ---- *)

let prop_cdcl_matches_dpll =
  QCheck.Test.make ~name:"cdcl = dpll on random formulas" ~count:300 arb_formula
    (fun f ->
      let d = Dpll.solve f in
      let c = (Ec_sat.Cdcl.solve_response f).outcome in
      match (d, c) with
      | O.Sat a, O.Sat b -> A.satisfies a f && A.satisfies b f
      | O.Unsat, O.Unsat -> true
      | _, _ -> false)

let test_cdcl_units_and_conflict_at_load () =
  let f = F.of_lists ~num_vars:2 [ [ 1 ]; [ -1 ] ] in
  check Alcotest.string "contradicting units" "unsat"
    (O.to_string (Ec_sat.Cdcl.solve_response f).outcome);
  let f2 = F.of_lists ~num_vars:2 [ [ 1 ]; [ -1; 2 ] ] in
  (match (Ec_sat.Cdcl.solve_response f2).outcome with
  | O.Sat a ->
    check Alcotest.bool "unit propagated" true (A.value a 1 = A.True);
    check Alcotest.bool "implied" true (A.value a 2 = A.True)
  | _ -> Alcotest.fail "satisfiable")

let test_cdcl_assumptions () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  (match (Ec_sat.Cdcl.solve_response ~assumptions:[ -2 ] f).outcome with
  | O.Sat a ->
    check Alcotest.bool "assumption respected" true (A.value a 2 = A.False);
    check Alcotest.bool "forced v1" true (A.value a 1 = A.True)
  | _ -> Alcotest.fail "sat under ~v2");
  (match (Ec_sat.Cdcl.solve_response ~assumptions:[ 1; -3 ] f).outcome with
  | O.Unsat -> ()
  | _ -> Alcotest.fail "v1 & ~v3 contradicts (-1,3)")

let prop_cdcl_assumptions_consistent =
  QCheck.Test.make ~name:"cdcl assumptions = adding units" ~count:200 arb_formula
    (fun f ->
      let n = F.num_vars f in
      let a1 = 1 and a2 = -(min n 2) in
      let with_assumptions = (Ec_sat.Cdcl.solve_response ~assumptions:[ a1; a2 ] f).outcome in
      let with_units =
        (Ec_sat.Cdcl.solve_response (F.add_clauses f [ C.make [ a1 ]; C.make [ a2 ] ])).outcome
      in
      match (with_assumptions, with_units) with
      | O.Sat _, O.Sat _ | O.Unsat, O.Unsat -> true
      | _, _ -> false)

let test_cdcl_conflict_budget () =
  (* tiny budget on a pigeonhole-ish instance gives Unknown *)
  let php n =
    (* n+1 pigeons, n holes: var p*n + h + 1 *)
    let v p h = (p * n) + h + 1 in
    let at_least = List.init (n + 1) (fun p -> List.init n (fun h -> v p h)) in
    let at_most =
      List.concat_map
        (fun h ->
          List.concat_map
            (fun p1 ->
              List.filter_map
                (fun p2 -> if p1 < p2 then Some [ -v p1 h; -v p2 h ] else None)
                (List.init (n + 1) Fun.id))
            (List.init (n + 1) Fun.id))
        (List.init n Fun.id)
    in
    F.of_lists ~num_vars:((n + 1) * n) (at_least @ at_most)
  in
  let f = php 6 in
  (match
     (Ec_sat.Cdcl.solve_response
        ~options:
          { Ec_sat.Cdcl.default_options with
            budget = Ec_util.Budget.create ~conflicts:5 ()
          }
        f)
       .Ec_sat.Cdcl.outcome
   with
  | O.Unknown _ -> ()
  | O.Sat _ -> Alcotest.fail "php is unsat"
  | O.Unsat -> Alcotest.fail "5 conflicts cannot refute php6");
  (* and without budget it refutes it *)
  check Alcotest.string "php6 unsat" "unsat"
    (O.to_string (Ec_sat.Cdcl.solve_response f).outcome)

let test_cdcl_phase_hint () =
  (* on an unconstrained instance the hint is reproduced exactly *)
  let f = F.of_lists ~num_vars:6 [ [ 1; -1 ] ] in
  let f = F.add_var f in
  ignore f;
  let g = F.create ~num_vars:6 [] in
  let hint = A.of_list 6 [ (1, true); (2, false); (3, true); (4, true); (5, false); (6, false) ] in
  match
    (Ec_sat.Cdcl.solve_response
      ~options:{ Ec_sat.Cdcl.default_options with phase_hint = Some hint }
      g).outcome
  with
  | O.Sat a ->
    List.iter
      (fun v ->
        check Alcotest.bool (Printf.sprintf "v%d follows hint" v) true
          (A.value a v = A.value hint v))
      [ 1; 2; 3; 4; 5; 6 ]
  | _ -> Alcotest.fail "empty formula is sat"

let test_cdcl_large_planted () =
  let rng = Ec_util.Rng.create 123 in
  let n = 400 in
  let planted = A.of_bool_list (List.init n (fun _ -> Ec_util.Rng.bool rng)) in
  let rec clause () =
    let c = Ec_cnf.Change.random_clause rng ~num_vars:n ~width:3 in
    if A.satisfies_clause planted c then c else clause ()
  in
  let f = F.create ~num_vars:n (List.init (4 * n) (fun _ -> clause ())) in
  match (Ec_sat.Cdcl.solve_response f).outcome with
  | O.Sat a -> check Alcotest.bool "model valid" true (A.satisfies a f)
  | _ -> Alcotest.fail "planted instance is satisfiable"

(* ---- Cardinality ---- *)

let count_true a lits =
  List.length (List.filter (A.lit_true a) lits)

let prop_at_most_sound =
  (* solving base + at_most k never yields more than k true literals,
     and when brute force says k true literals are reachable, the
     encoding stays satisfiable *)
  QCheck.Test.make ~name:"sequential counter at_most semantics" ~count:200
    QCheck.(pair (int_range 1 6) (int_range 0 6))
    (fun (n, k) ->
      let lits = List.init n (fun i -> i + 1) in
      let enc = Ec_sat.Cardinality.at_most ~next_var:(n + 1) lits k in
      let f = F.create ~num_vars:(max n (enc.next_var - 1)) enc.clauses in
      (* brute force over original vars, extend by DPLL over aux *)
      let rec all_assignments i acc =
        if i > n then [ acc ]
        else
          all_assignments (i + 1) (A.set acc i A.True)
          @ all_assignments (i + 1) (A.set acc i A.False)
      in
      List.for_all
        (fun a ->
          let cnt = count_true a lits in
          (* fix original vars via assumptions; satisfiable iff cnt <= k *)
          let assumptions =
            List.map (fun v -> if A.value a v = A.True then v else -v) lits
          in
          let outcome = (Ec_sat.Cdcl.solve_response ~assumptions f).outcome in
          if cnt <= k then O.is_sat outcome else not (O.is_sat outcome))
        (all_assignments 1 (A.make (max n (enc.next_var - 1)))))

let test_at_most_edges () =
  let lits = [ 1; 2; 3 ] in
  let e0 = Ec_sat.Cardinality.at_most ~next_var:4 lits 0 in
  check Alcotest.int "k=0 gives unit clauses" 3 (List.length e0.clauses);
  let e3 = Ec_sat.Cardinality.at_most ~next_var:4 lits 3 in
  check Alcotest.int "k>=n gives nothing" 0 (List.length e3.clauses);
  Alcotest.check_raises "negative k"
    (Invalid_argument "Cardinality.at_most: negative bound") (fun () ->
      ignore (Ec_sat.Cardinality.at_most ~next_var:4 lits (-1)));
  Alcotest.check_raises "aux collision"
    (Invalid_argument "Cardinality.at_most: next_var collides with input literals")
    (fun () -> ignore (Ec_sat.Cardinality.at_most ~next_var:2 lits 1))

let test_at_least_exactly () =
  let lits = [ 1; 2; 3; 4 ] in
  let al = Ec_sat.Cardinality.at_least ~next_var:5 lits 1 in
  check Alcotest.int "at_least 1 is one clause" 1 (List.length al.clauses);
  let e = Ec_sat.Cardinality.exactly ~next_var:5 lits 2 in
  let f = F.create ~num_vars:(e.next_var - 1) e.clauses in
  (* check by assumptions: exactly-2 assignments sat, others unsat *)
  let cases = [ ([ 1; 2; -3; -4 ], true); ([ 1; -2; -3; -4 ], false); ([ 1; 2; 3; -4 ], false) ] in
  List.iter
    (fun (assumptions, expected) ->
      let outcome = (Ec_sat.Cdcl.solve_response ~assumptions f).outcome in
      check Alcotest.bool (String.concat "," (List.map string_of_int assumptions))
        expected (O.is_sat outcome))
    cases;
  let imposs = Ec_sat.Cardinality.at_least ~next_var:5 lits 5 in
  check Alcotest.bool "at_least > n unsatisfiable" true
    (List.exists C.is_empty imposs.clauses)

(* ---- Minimize ---- *)

let test_minimize_keeps_satisfaction () =
  let f = F.of_lists ~num_vars:4 [ [ 1; 2 ]; [ 2; 3 ]; [ -4; 2 ] ] in
  let a = A.of_list 4 [ (1, true); (2, true); (3, true); (4, false) ] in
  let m = Ec_sat.Minimize.recover_dc f a in
  check Alcotest.bool "still satisfies" true (A.satisfies m f);
  check Alcotest.bool "gained DCs" true (A.dc_count m > A.dc_count a)

let prop_minimize_sound =
  QCheck.Test.make ~name:"recover_dc preserves satisfaction, never loses DCs"
    ~count:300 arb_formula (fun f ->
      match (Ec_sat.Cdcl.solve_response f).outcome with
      | O.Sat a ->
        let m = Ec_sat.Minimize.recover_dc f a in
        A.satisfies m f && A.dc_count m >= A.dc_count a
      | O.Unsat -> QCheck.assume_fail ()
      | O.Unknown _ -> false)

let prop_minimize_orders_agree_on_soundness =
  QCheck.Test.make ~name:"recover_dc orders both sound" ~count:150 arb_formula
    (fun f ->
      match (Ec_sat.Cdcl.solve_response f).outcome with
      | O.Sat a ->
        let m1 = Ec_sat.Minimize.recover_dc ~order:Ec_sat.Minimize.Ascending_vars f a in
        let m2 =
          Ec_sat.Minimize.recover_dc ~order:Ec_sat.Minimize.Fewest_occurrences_first f a
        in
        A.satisfies m1 f && A.satisfies m2 f
      | O.Unsat -> QCheck.assume_fail ()
      | O.Unknown _ -> false)

let test_minimize_dc_gain () =
  let f = F.of_lists ~num_vars:3 [ [ 1 ] ] in
  let a = A.of_list 3 [ (1, true); (2, true); (3, false) ] in
  check Alcotest.int "gain counts unconstrained vars" 2 (Ec_sat.Minimize.dc_gain f a)

let tests =
  [ ( "sat.dpll",
      [ Alcotest.test_case "trivial cases" `Quick test_dpll_trivial;
        qtest prop_dpll_correct ] );
    ( "sat.cdcl",
      [ Alcotest.test_case "units and conflicts at load" `Quick
          test_cdcl_units_and_conflict_at_load;
        Alcotest.test_case "assumptions" `Quick test_cdcl_assumptions;
        Alcotest.test_case "conflict budget + php" `Slow test_cdcl_conflict_budget;
        Alcotest.test_case "phase hint" `Quick test_cdcl_phase_hint;
        Alcotest.test_case "large planted instance" `Quick test_cdcl_large_planted;
        qtest prop_cdcl_matches_dpll;
        qtest prop_cdcl_assumptions_consistent ] );
    ( "sat.cardinality",
      [ Alcotest.test_case "edge cases" `Quick test_at_most_edges;
        Alcotest.test_case "at_least / exactly" `Quick test_at_least_exactly;
        qtest prop_at_most_sound ] );
    ( "sat.minimize",
      [ Alcotest.test_case "keeps satisfaction" `Quick test_minimize_keeps_satisfaction;
        Alcotest.test_case "dc gain" `Quick test_minimize_dc_gain;
        qtest prop_minimize_sound;
        qtest prop_minimize_orders_agree_on_soundness ] ) ]
