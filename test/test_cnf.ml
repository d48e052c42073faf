(* Tests for Ec_cnf: Lit, Clause, Formula, Assignment, Dimacs, Ksat,
   Change. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module L = Ec_cnf.Lit
module C = Ec_cnf.Clause
module F = Ec_cnf.Formula
module A = Ec_cnf.Assignment
module K = Ec_cnf.Ksat

let formula_testable = Alcotest.testable (fun fmt f -> Format.pp_print_string fmt (F.to_string f)) F.equal

(* ---- Lit ---- *)

let test_lit_basics () =
  check Alcotest.int "make positive" 3 (L.make 3 true);
  check Alcotest.int "make negative" (-3) (L.make 3 false);
  check Alcotest.int "var" 7 (L.var (-7));
  check Alcotest.bool "polarity" false (L.is_positive (-2));
  check Alcotest.int "negate" 5 (L.negate (-5));
  check Alcotest.string "to_string" "~v3" (L.to_string (-3));
  Alcotest.check_raises "zero" (Invalid_argument "Lit.of_int: 0 is not a literal")
    (fun () -> ignore (L.of_int 0));
  Alcotest.check_raises "bad var" (Invalid_argument "Lit.make: variable must be >= 1")
    (fun () -> ignore (L.make 0 true))

let test_lit_order () =
  (* variable-major, positive before negative *)
  check Alcotest.bool "v1 < v2" true (L.compare 1 2 < 0);
  check Alcotest.bool "v1 < ~v1" true (L.compare 1 (-1) < 0);
  check Alcotest.bool "~v1 < v2" true (L.compare (-1) 2 < 0)

(* ---- Clause ---- *)

let test_clause_normalization () =
  let c = C.make [ 3; -5; 1; 3 ] in
  check (Alcotest.array Alcotest.int) "sorted, deduped" [| 1; 3; -5 |] (C.lits c);
  check Alcotest.int "size" 3 (C.size c);
  Alcotest.check_raises "tautology" C.Tautology (fun () -> ignore (C.make [ 1; -1 ]));
  check Alcotest.bool "make_opt tautology" true (C.make_opt [ 2; -2 ] = None)

let test_clause_queries () =
  let c = C.make [ 1; -3; 5 ] in
  check Alcotest.bool "mem" true (C.mem (-3) c);
  check Alcotest.bool "mem wrong phase" false (C.mem 3 c);
  check Alcotest.bool "mem_var" true (C.mem_var 3 c);
  check Alcotest.int "max_var" 5 (C.max_var c);
  check Alcotest.bool "empty" true (C.is_empty (C.make []));
  check Alcotest.int "max_var empty" 0 (C.max_var (C.make []))

let test_clause_remove_var () =
  let c = C.make [ 1; -3; 5 ] in
  check (Alcotest.array Alcotest.int) "removed" [| 1; 5 |] (C.lits (C.remove_var 3 c));
  check Alcotest.bool "absent var: same clause" true (C.remove_var 9 c == c);
  let c2 = C.remove_var 1 (C.remove_var 5 (C.remove_var 3 c)) in
  check Alcotest.bool "empties out" true (C.is_empty c2)

let test_clause_strings () =
  check Alcotest.string "paper notation" "(v1 + ~v3)" (C.to_string (C.make [ -3; 1 ]));
  check Alcotest.string "dimacs" "1 -3 0" (C.to_dimacs (C.make [ -3; 1 ]))

(* ---- Formula ---- *)

let test_formula_create () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -2; 3 ]; [ 1; -1 ] ] in
  (* tautology dropped *)
  check Alcotest.int "clauses" 2 (F.num_clauses f);
  check Alcotest.int "vars" 3 (F.num_vars f);
  Alcotest.check_raises "var above range"
    (Invalid_argument "Formula.create: clause (v5) mentions variable above 3") (fun () ->
      ignore (F.create ~num_vars:3 [ C.make [ 5 ] ]))

let test_formula_occurrences () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ]; [ 1; -3 ] ] in
  check (Alcotest.list Alcotest.int) "pos occurrences" [ 0; 2 ] (F.occurrences f 1);
  check (Alcotest.list Alcotest.int) "neg occurrences" [ 1 ] (F.occurrences f (-1));
  check (Alcotest.list Alcotest.int) "var occurrences" [ 0; 1; 2 ] (F.var_occurrences f 1);
  check (Alcotest.list Alcotest.int) "unused" [] (F.occurrences f 2 |> List.filter (fun i -> i > 5))

let test_formula_changes () =
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let f2 = F.add_clause f (C.make [ -1; 2 ]) in
  check Alcotest.int "add_clause" 2 (F.num_clauses f2);
  check Alcotest.int "original untouched" 1 (F.num_clauses f);
  let f3 = F.add_clause f2 (C.make [ 4 ]) in
  check Alcotest.int "add_clause grows vars" 4 (F.num_vars f3);
  let f4 = F.remove_clause f2 0 in
  check formula_testable "remove_clause shifts" (F.of_lists ~num_vars:2 [ [ -1; 2 ] ]) f4;
  check Alcotest.int "add_var" 3 (F.num_vars (F.add_var f))

let test_formula_eliminate () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -2; 3 ]; [ 2 ] ] in
  let f' = F.eliminate_var f 2 in
  check Alcotest.bool "empty clause appears" true (F.has_empty_clause f');
  check Alcotest.int "var count unchanged" 3 (F.num_vars f');
  check (Alcotest.list Alcotest.int) "v2 gone" [ 1; 3 ] (F.vars_used f')

let formula_gen =
  (* random small formulas for property tests *)
  QCheck.Gen.(
    let* n = int_range 3 10 in
    let* m = int_range 1 25 in
    let clause =
      let* w = int_range 1 (min 4 n) in
      let* vars = QCheck.Gen.shuffle_l (List.init n (fun i -> i + 1)) in
      let vars = List.filteri (fun i _ -> i < w) vars in
      let* signs = list_repeat w bool in
      return (List.map2 (fun v s -> if s then v else -v) vars signs)
    in
    let* clauses = list_repeat m clause in
    return (F.of_lists ~num_vars:n clauses))

let arbitrary_formula = QCheck.make ~print:F.to_string formula_gen

let prop_add_remove_roundtrip =
  QCheck.Test.make ~name:"add then remove clause is identity" ~count:200 arbitrary_formula
    (fun f ->
      let c = C.make [ 1; 2 ] in
      let f2 = F.add_clause f c in
      F.equal (F.remove_clause f2 (F.num_clauses f2 - 1)) f)

let prop_eliminate_shrinks =
  QCheck.Test.make ~name:"eliminate removes all occurrences" ~count:200 arbitrary_formula
    (fun f ->
      let v = 1 + (F.num_vars f / 2) in
      let f' = F.eliminate_var f v in
      F.var_occurrences f' v = [])

(* ---- Assignment ---- *)

let test_assignment_basics () =
  let a = A.of_list 4 [ (1, true); (3, false) ] in
  check Alcotest.bool "v1 true" true (A.value a 1 = A.True);
  check Alcotest.bool "v2 dc" true (A.value a 2 = A.Dc);
  check Alcotest.bool "v3 false" true (A.value a 3 = A.False);
  check Alcotest.int "dc count" 2 (A.dc_count a);
  check (Alcotest.list Alcotest.int) "assigned" [ 1; 3 ] (A.assigned_vars a);
  check Alcotest.string "to_string" "{v1=1, v2=*, v3=0, v4=*}" (A.to_string a);
  Alcotest.check_raises "conflicting of_list"
    (Invalid_argument "Assignment.of_list: conflicting values for v1") (fun () ->
      ignore (A.of_list 2 [ (1, true); (1, false) ]))

let test_assignment_lit_eval () =
  let a = A.of_list 3 [ (1, true); (2, false) ] in
  check Alcotest.bool "pos lit true" true (A.lit_true a 1);
  check Alcotest.bool "neg lit true" true (A.lit_true a (-2));
  check Alcotest.bool "dc lit not true" false (A.lit_true a 3);
  check Alcotest.bool "dc lit not false" false (A.lit_false a 3);
  check Alcotest.bool "pos lit of false var" true (A.lit_false a 2)

let test_assignment_satisfies () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let a = A.of_list 3 [ (1, true); (3, true) ] in
  check Alcotest.bool "satisfies" true (A.satisfies a f);
  check Alcotest.int "sat count" 1 (A.clause_sat_count a (F.clause f 0));
  let b = A.of_list 3 [ (1, true) ] in
  check (Alcotest.list Alcotest.int) "unsat clauses" [ 1 ] (A.unsatisfied_clauses b f)

let test_assignment_preserved () =
  let a = A.of_list 4 [ (1, true); (2, false); (3, true) ] in
  let b = A.of_list 4 [ (1, true); (2, true); (3, true) ] in
  check Alcotest.int "preserved count" 3 (A.preserved_count ~old_assignment:a b);
  (* v4 DC in both counts as preserved; v2 differs *)
  check (Alcotest.float 1e-9) "preserved fraction" 0.75
    (A.preserved_fraction ~old_assignment:a b)

let test_assignment_merge () =
  let base = A.of_list 3 [ (1, true); (2, false) ] in
  let overlay = A.of_list 3 [ (2, true) ] in
  let m = A.merge ~base ~overlay in
  check Alcotest.bool "overlay wins where assigned" true (A.value m 2 = A.True);
  check Alcotest.bool "base kept elsewhere" true (A.value m 1 = A.True);
  let m2 = A.merge_on ~vars:[ 1 ] ~base ~overlay in
  check Alcotest.bool "merge_on takes overlay even if DC" true (A.value m2 1 = A.Dc);
  check Alcotest.bool "merge_on leaves others" true (A.value m2 2 = A.False)

let test_assignment_extend () =
  let a = A.of_list 2 [ (1, true) ] in
  let b = A.extend a 4 in
  check Alcotest.int "extended" 4 (A.num_vars b);
  check Alcotest.bool "new vars DC" true (A.value b 4 = A.Dc);
  check Alcotest.bool "extend same size is identity" true (A.extend a 2 == a);
  Alcotest.check_raises "shrink" (Invalid_argument "Assignment.extend: shrinking")
    (fun () -> ignore (A.extend a 1))

let test_assignment_init () =
  check Alcotest.int "init 0 is empty" 0 (A.num_vars (A.init 0 (fun _ -> A.True)));
  Alcotest.check_raises "negative width" (Invalid_argument "Assignment.init") (fun () ->
      ignore (A.init (-1) (fun _ -> A.True)))

(* [init] builds in one pass exactly what a loop of [set] builds. *)
let prop_init_is_set_fold =
  let value = QCheck.Gen.oneofl [ A.True; A.False; A.Dc ] in
  QCheck.Test.make ~name:"init n f = fold set over 1..n" ~count:200
    (QCheck.make QCheck.Gen.(array_size (int_bound 40) value))
    (fun values ->
      let n = Array.length values in
      let f v = values.(v - 1) in
      let folded = ref (A.make n) in
      for v = 1 to n do
        folded := A.set !folded v (f v)
      done;
      A.equal (A.init n f) !folded)

(* ---- Dimacs ---- *)

let test_dimacs_roundtrip () =
  let f = F.of_lists ~num_vars:4 [ [ 1; -2 ]; [ 3; 4; -1 ]; [ 2 ] ] in
  let f2 = Ec_cnf.Dimacs.parse_string (Ec_cnf.Dimacs.to_string ~comment:"test" f) in
  check formula_testable "roundtrip" f f2

let test_dimacs_parse_quirks () =
  let f =
    Ec_cnf.Dimacs.parse_string
      "c comment\np cnf 3 2\n1 -2 0\n3\n-1 0\n%\n0\nthis is ignored after %"
  in
  check Alcotest.int "clauses (multi-line clause)" 2 (F.num_clauses f);
  check Alcotest.int "vars" 3 (F.num_vars f)

let test_dimacs_errors () =
  let expect_error s =
    match Ec_cnf.Dimacs.parse_string s with
    | exception Ec_cnf.Dimacs.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for " ^ s)
  in
  expect_error "1 2 0\n";
  expect_error "p cnf 2 1\n5 0\n";
  expect_error "p cnf 2 1\np cnf 2 1\n";
  expect_error "p cnf a b\n";
  expect_error "p cnf 2 1\n1 2\n"

let prop_dimacs_roundtrip =
  QCheck.Test.make ~name:"dimacs roundtrip on random formulas" ~count:200
    arbitrary_formula (fun f ->
      F.equal f (Ec_cnf.Dimacs.parse_string (Ec_cnf.Dimacs.to_string f)))

let test_dimacs_solution () =
  let a = A.of_list 3 [ (1, true); (3, false) ] in
  check Alcotest.string "v-line skips DC" "v 1 -3 0" (Ec_cnf.Dimacs.solution_to_string a)

(* ---- Ksat ---- *)

(* the paper's §1 instance *)
let paper_f =
  F.of_lists ~num_vars:5 [ [ 1; -3; -5 ]; [ 2; -3; -5 ]; [ 2; 4; 5 ]; [ -3; -4 ] ]

let paper_s = A.of_list 5 [ (1, false); (2, true); (3, true); (4, false); (5, false) ]

let paper_e = A.of_list 5 [ (1, true); (2, true); (3, false); (4, true); (5, false) ]

let test_ksat_flip_breaks () =
  (* flipping v2 in S breaks the clauses only v2 satisfies *)
  check Alcotest.bool "v2 flip breaks something" true (K.flip_breaks paper_f paper_s 2 <> []);
  check Alcotest.bool "E flips all safe or repairable" true (K.enabled paper_f paper_e);
  check Alcotest.bool "S is not enabled" false (K.enabled paper_f paper_s)

let test_ksat_dc_flip_free () =
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let a = A.of_list 2 [ (1, true) ] in
  check (Alcotest.list Alcotest.int) "DC var flip breaks nothing" [] (K.flip_breaks f a 2);
  check Alcotest.bool "flip_safe DC" true (K.flip_safe f a 2)

let test_ksat_supporters () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -2; 3 ] ] in
  let a = A.of_list 3 [ (1, true); (2, false); (3, true) ] in
  (* clause 0 is 1-sat via v1; v2 is false there; flipping v2 to true
     endangers clause 1 (-2), but clause 1 has v3 true => safe *)
  check (Alcotest.list Alcotest.int) "supporter found" [ 2 ]
    (K.supporters f a (F.clause f 0))

let test_ksat_report () =
  let r = K.analyze paper_f paper_e in
  check Alcotest.int "total" 4 r.K.clauses_total;
  check Alcotest.int "unsat" 0 r.K.clauses_unsat;
  check Alcotest.int "fragile" 0 r.K.clauses_fragile;
  check (Alcotest.float 1e-9) "flexibility" 1.0 (K.flexibility r)

let test_ksat_tolerates () =
  check Alcotest.bool "E tolerates v3 elimination" true
    (K.tolerates_elimination paper_f paper_e 3);
  check Alcotest.bool "S does not tolerate v2" false
    (K.tolerates_elimination paper_f paper_s 2)

(* ---- Change ---- *)

let test_change_apply () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -2; 3 ] ] in
  let ch = Ec_cnf.Change.Add_clause (C.make [ -1; -3 ]) in
  check Alcotest.int "add" 3 (F.num_clauses (Ec_cnf.Change.apply f ch));
  check Alcotest.bool "tightening" true (Ec_cnf.Change.is_tightening ch);
  check Alcotest.bool "add var loosens" false
    (Ec_cnf.Change.is_tightening Ec_cnf.Change.Add_var);
  let script = [ Ec_cnf.Change.Add_var; Ec_cnf.Change.Eliminate_var 2 ] in
  let f' = Ec_cnf.Change.apply_script f script in
  check Alcotest.int "script vars" 4 (F.num_vars f');
  check (Alcotest.list Alcotest.int) "script eliminated" [ 1; 3 ] (F.vars_used f')

let test_change_random_clause () =
  let rng = Ec_util.Rng.create 9 in
  for _ = 1 to 100 do
    let c = Ec_cnf.Change.random_clause rng ~num_vars:8 ~width:3 in
    check Alcotest.int "width" 3 (C.size c)
  done;
  Alcotest.check_raises "width too big" (Invalid_argument "Change.random_clause: width")
    (fun () -> ignore (Ec_cnf.Change.random_clause rng ~num_vars:2 ~width:3))

let test_change_anchored_clause () =
  let rng = Ec_util.Rng.create 10 in
  let a = A.of_list 6 [ (1, true); (2, false); (3, true) ] in
  for _ = 1 to 100 do
    let c = Ec_cnf.Change.random_clause_satisfied_by rng a ~num_vars:6 ~width:3 in
    check Alcotest.bool "anchored satisfied" true (A.satisfies_clause a c)
  done

let test_fast_ec_script () =
  let rng = Ec_util.Rng.create 11 in
  let f =
    F.of_lists ~num_vars:8
      [ [ 1; 2; 3 ]; [ -1; 4; 5 ]; [ 2; -5; 6 ]; [ 7; 8; -2 ]; [ -7; 3; 1 ] ]
  in
  let script = Ec_cnf.Change.fast_ec_script rng f ~eliminate:2 ~add:5 ~clause_width:3 in
  let elims =
    List.length
      (List.filter
         (function Ec_cnf.Change.Eliminate_var _ -> true | _ -> false)
         script)
  in
  let adds =
    List.length
      (List.filter (function Ec_cnf.Change.Add_clause _ -> true | _ -> false) script)
  in
  check Alcotest.int "eliminations" 2 elims;
  check Alcotest.int "additions" 5 adds;
  (* applying never creates an empty clause (eliminable_vars filter) *)
  let f' = Ec_cnf.Change.apply_script f script in
  check Alcotest.bool "no empty clause" false (F.has_empty_clause f')

let test_preserving_script_constructive () =
  let rng = Ec_util.Rng.create 12 in
  let f =
    F.of_lists ~num_vars:10
      (List.init 20 (fun i -> [ 1 + (i mod 8); -(2 + (i mod 7)); 1 + ((i + 3) mod 10) ]))
  in
  match (Ec_sat.Cdcl.solve_response f).outcome with
  | Ec_sat.Outcome.Sat reference ->
    let script =
      Ec_cnf.Change.preserving_ec_script rng f ~reference ~add_vars:2 ~del_vars:2
        ~add_clauses:3 ~del_clauses:3 ~clause_width:3
    in
    let f' = Ec_cnf.Change.apply_script f script in
    (* constructive mode keeps the instance satisfiable *)
    check Alcotest.bool "still satisfiable" true
      (Ec_sat.Outcome.is_sat (Ec_sat.Cdcl.solve_response f').outcome)
  | _ -> Alcotest.fail "base formula should be satisfiable"

let prop_preserving_script_checked =
  QCheck.Test.make ~name:"checked preserving script keeps satisfiability" ~count:25
    arbitrary_formula (fun f ->
      match (Ec_sat.Cdcl.solve_response f).outcome with
      | Ec_sat.Outcome.Sat reference ->
        let rng = Ec_util.Rng.create 77 in
        let satisfiable g = Ec_sat.Outcome.is_sat (Ec_sat.Cdcl.solve_response g).outcome in
        let script =
          Ec_cnf.Change.preserving_ec_script ~satisfiable rng f ~reference ~add_vars:1
            ~del_vars:1 ~add_clauses:2 ~del_clauses:1 ~clause_width:2
        in
        satisfiable (Ec_cnf.Change.apply_script f script)
      | Ec_sat.Outcome.Unsat -> QCheck.assume_fail ()
      | Ec_sat.Outcome.Unknown _ -> false)

let tests =
  [ ( "cnf.lit",
      [ Alcotest.test_case "basics" `Quick test_lit_basics;
        Alcotest.test_case "ordering" `Quick test_lit_order ] );
    ( "cnf.clause",
      [ Alcotest.test_case "normalization" `Quick test_clause_normalization;
        Alcotest.test_case "queries" `Quick test_clause_queries;
        Alcotest.test_case "remove_var" `Quick test_clause_remove_var;
        Alcotest.test_case "strings" `Quick test_clause_strings ] );
    ( "cnf.formula",
      [ Alcotest.test_case "create" `Quick test_formula_create;
        Alcotest.test_case "occurrences" `Quick test_formula_occurrences;
        Alcotest.test_case "changes" `Quick test_formula_changes;
        Alcotest.test_case "eliminate" `Quick test_formula_eliminate;
        qtest prop_add_remove_roundtrip;
        qtest prop_eliminate_shrinks ] );
    ( "cnf.assignment",
      [ Alcotest.test_case "basics" `Quick test_assignment_basics;
        Alcotest.test_case "literal evaluation" `Quick test_assignment_lit_eval;
        Alcotest.test_case "satisfies" `Quick test_assignment_satisfies;
        Alcotest.test_case "preserved" `Quick test_assignment_preserved;
        Alcotest.test_case "merge" `Quick test_assignment_merge;
        Alcotest.test_case "extend" `Quick test_assignment_extend;
        Alcotest.test_case "init" `Quick test_assignment_init;
        qtest prop_init_is_set_fold ] );
    ( "cnf.dimacs",
      [ Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
        Alcotest.test_case "parser quirks" `Quick test_dimacs_parse_quirks;
        Alcotest.test_case "errors" `Quick test_dimacs_errors;
        Alcotest.test_case "solution line" `Quick test_dimacs_solution;
        qtest prop_dimacs_roundtrip ] );
    ( "cnf.ksat",
      [ Alcotest.test_case "flip_breaks" `Quick test_ksat_flip_breaks;
        Alcotest.test_case "DC flips are free" `Quick test_ksat_dc_flip_free;
        Alcotest.test_case "supporters" `Quick test_ksat_supporters;
        Alcotest.test_case "report" `Quick test_ksat_report;
        Alcotest.test_case "tolerates elimination" `Quick test_ksat_tolerates ] );
    ( "cnf.change",
      [ Alcotest.test_case "apply" `Quick test_change_apply;
        Alcotest.test_case "random clause" `Quick test_change_random_clause;
        Alcotest.test_case "anchored clause" `Quick test_change_anchored_clause;
        Alcotest.test_case "fast-EC script" `Quick test_fast_ec_script;
        Alcotest.test_case "preserving script (constructive)" `Quick
          test_preserving_script_constructive;
        qtest prop_preserving_script_checked ] ) ]
