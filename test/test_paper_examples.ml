(* The paper's worked examples (§1, §3, §5, §7), encoded as tests.

   Where the OCR'd text of the paper is internally inconsistent (the
   fast-EC example's printed assignment does not satisfy its printed
   formula), the test works from the prose semantics instead; see
   DESIGN.md §4. *)

let check = Alcotest.check

module F = Ec_cnf.Formula
module C = Ec_cnf.Clause
module A = Ec_cnf.Assignment

(* ---- §1, enabling example ----
   F = (v1+~v3+~v5)(v2+~v3+~v5)(v2+v4+v5)(~v3+~v4)
   S = {0,1,1,0,0}   E = {1,1,0,1,0} *)

let f1 =
  F.of_lists ~num_vars:5 [ [ 1; -3; -5 ]; [ 2; -3; -5 ]; [ 2; 4; 5 ]; [ -3; -4 ] ]

let s1 = A.of_list 5 [ (1, false); (2, true); (3, true); (4, false); (5, false) ]

let e1 = A.of_list 5 [ (1, true); (2, true); (3, false); (4, true); (5, false) ]

let test_both_satisfy () =
  check Alcotest.bool "S satisfies" true (A.satisfies s1 f1);
  check Alcotest.bool "E satisfies" true (A.satisfies e1 f1)

let test_e_tolerates_everything () =
  (* "Solution E always has the correct solution, regardless of which
     variable is being eliminated." *)
  List.iter
    (fun v ->
      check Alcotest.bool
        (Printf.sprintf "E tolerates eliminating v%d" v)
        true
        (Ec_cnf.Ksat.tolerates_elimination f1 e1 v))
    [ 1; 2; 3; 4; 5 ]

let test_s_fragile () =
  (* "However, if we eliminate v2, then clauses f2 and f3 are not
     satisfied." — S breaks on at least one elimination. *)
  check Alcotest.bool "S does not tolerate v2" false
    (Ec_cnf.Ksat.tolerates_elimination f1 s1 2);
  check Alcotest.bool "E enabled, S not" true
    (Ec_cnf.Ksat.enabled f1 e1 && not (Ec_cnf.Ksat.enabled f1 s1))

let test_v3_elimination_repair () =
  (* "An interesting case is when v3 is being eliminated ... if we
     change the assignment of variable v4 ... this clause will again be
     satisfied" — after eliminating v3, E needs only a local flip. *)
  let f' = F.eliminate_var f1 3 in
  let r = Ec_core.Fast_ec.resolve ~backend:Ec_core.Backend.ilp_exact f' e1 in
  match r.Ec_core.Fast_ec.solution with
  | Some a ->
    check Alcotest.bool "repaired" true (A.satisfies a f');
    check Alcotest.bool "small cone" true (r.Ec_core.Fast_ec.sub_vars_count <= 3)
  | None -> Alcotest.fail "local repair exists"

(* ---- §3, set-cover encoding example ----
   F = (~v1 + v2)(v2 + v3)(v1 + ~v3): x1..x3 positive phases,
   x4..x6 complemented. *)

let test_section3_encoding () =
  let f = F.of_lists ~num_vars:3 [ [ -1; 2 ]; [ 2; 3 ]; [ 1; -3 ] ] in
  let enc = Ec_core.Encode.of_formula f in
  (* the paper's subsets: C1 = {S3} (v1 appears in clause 3), C2 = {S1, S2},
     C3 = {S2}, C4 = {S1}, C5 = {}, C6 = {S3} *)
  let occurrences_of_ilp_var id =
    (* clauses whose covering row mentions this ILP variable *)
    let m = Ec_core.Encode.model enc in
    Array.to_list (Ec_ilp.Model.constrs m)
    |> List.filteri (fun i _ -> i < F.num_clauses f)
    |> List.mapi (fun i (c : Ec_ilp.Model.constr) ->
           (i, List.mem id (Ec_ilp.Linexpr.vars c.expr)))
    |> List.filter_map (fun (i, present) -> if present then Some i else None)
  in
  check (Alcotest.list Alcotest.int) "C1 = {S3}" [ 2 ]
    (occurrences_of_ilp_var (Ec_core.Encode.pos_var enc 1));
  check (Alcotest.list Alcotest.int) "C2 = {S1, S2}" [ 0; 1 ]
    (occurrences_of_ilp_var (Ec_core.Encode.pos_var enc 2));
  check (Alcotest.list Alcotest.int) "C5 = {}" []
    (occurrences_of_ilp_var (Ec_core.Encode.neg_var enc 2))

(* ---- §6 fast EC: the formula of the example (prose semantics) ---- *)

let test_section6_fast_ec () =
  let f =
    F.of_lists ~num_vars:6
      [ [ 1; 2; 3 ]; [ 1; -2; -3; 4 ]; [ 1; 3; 6 ]; [ 1; 4; 5 ]; [ -1; 3; 4 ];
        [ 2; -3; 5 ]; [ 2; -6 ]; [ -2; 5 ]; [ 3; -4; 5 ]; [ -3; 5 ] ]
  in
  match (Ec_sat.Cdcl.solve_response f).outcome with
  | Ec_sat.Outcome.Sat s ->
    let f' =
      F.add_clauses f [ C.make [ -5; 6 ]; C.make [ 1; -3; 4 ] ]
    in
    let s = A.extend s (F.num_vars f') in
    let r = Ec_core.Fast_ec.resolve f' s in
    (* the paper's point: the re-solved instance is a small fraction of
       the ten-clause original *)
    (match r.Ec_core.Fast_ec.solution with
    | Some merged ->
      check Alcotest.bool "merged satisfies" true (A.satisfies merged f');
      check Alcotest.bool "cone smaller than instance" true
        (r.Ec_core.Fast_ec.sub_clauses_count < F.num_clauses f')
    | None -> Alcotest.fail "fast EC resolves the example")
  | _ -> Alcotest.fail "example formula is satisfiable"

(* ---- §7 preserving EC example ---- *)

let test_section7_preserving () =
  let f =
    F.of_lists ~num_vars:5
      [ [ 1; 2; 4 ]; [ 1; 4; -5 ]; [ -1; -3; 4 ]; [ 2; 3; 5 ]; [ -2; 4; 5 ]; [ 3; -4; 5 ] ]
  in
  let s = A.of_list 5 [ (1, true); (2, true); (3, false); (4, false); (5, true) ] in
  check Alcotest.bool "S satisfies F" true (A.satisfies s f);
  let f' = F.add_clauses f [ C.make [ -2; 3; 4 ]; C.make [ 1; -2; -5 ] ] in
  check Alcotest.bool "change invalidates S" false (A.satisfies s f');
  (* the paper's S2 = {1,0,0,0,1} preserves four of five *)
  let s2 = A.of_list 5 [ (1, true); (2, false); (3, false); (4, false); (5, true) ] in
  check Alcotest.bool "paper's S2 works" true (A.satisfies s2 f');
  check Alcotest.int "S2 preserves 4" 4 (A.preserved_count ~old_assignment:s s2);
  (* and preserving EC finds a 4-preserving optimum *)
  let r = Ec_core.Preserving.resolve f' ~reference:s in
  check Alcotest.int "optimum is 4" 4 r.Ec_core.Preserving.preserved;
  check Alcotest.bool "proved" true r.Ec_core.Preserving.optimal;
  (* the paper's S1 = {0,1,1,1,0} preserves only one — strictly worse *)
  let s1 = A.of_list 5 [ (1, false); (2, true); (3, true); (4, true); (5, false) ] in
  check Alcotest.bool "paper's S1 also satisfies" true (A.satisfies s1 f');
  check Alcotest.int "S1 preserves 1" 1 (A.preserved_count ~old_assignment:s s1)

(* ---- §5: the enabling ILP on the §3 example formula ---- *)

let test_section5_enabling_ilp () =
  let f = F.of_lists ~num_vars:3 [ [ -1; 2 ]; [ 2; 3 ]; [ 1; -3 ] ] in
  let enc = Ec_core.Encode.of_formula f in
  let info = Ec_core.Enabling.add Ec_core.Enabling.Constraints enc in
  (* one Z per literal occurrence: clauses have 2+2+2 literals *)
  check Alcotest.int "support vars" 6 info.Ec_core.Enabling.support_vars;
  let s = (Ec_ilpsolver.Bnb.solve_decision_response (Ec_core.Encode.model enc)).solution in
  match Ec_core.Encode.decode enc s with
  | Some a ->
    check Alcotest.bool "decoded solution is enabled" true (Ec_core.Enabling.verify f a)
  | None -> Alcotest.fail "the example is enableable"

let tests =
  [ ( "paper.section1",
      [ Alcotest.test_case "S and E both satisfy F" `Quick test_both_satisfy;
        Alcotest.test_case "E tolerates every elimination" `Quick
          test_e_tolerates_everything;
        Alcotest.test_case "S is fragile" `Quick test_s_fragile;
        Alcotest.test_case "v3 elimination repaired locally" `Quick
          test_v3_elimination_repair ] );
    ( "paper.section3",
      [ Alcotest.test_case "set-cover subsets" `Quick test_section3_encoding ] );
    ( "paper.section5",
      [ Alcotest.test_case "enabling ILP on the example" `Quick
          test_section5_enabling_ilp ] );
    ( "paper.section6",
      [ Alcotest.test_case "fast EC example" `Quick test_section6_fast_ec ] );
    ( "paper.section7",
      [ Alcotest.test_case "preserving example (4 of 5)" `Quick
          test_section7_preserving ] ) ]
