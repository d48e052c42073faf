(* Tests for Ec_sat.Totalizer, cross-checked against the sequential
   counter and against exhaustive assumption probing. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module F = Ec_cnf.Formula
module A = Ec_cnf.Assignment
module O = Ec_sat.Outcome
module T = Ec_sat.Totalizer

let test_outputs_count () =
  (* force input patterns via assumptions, read the unary outputs *)
  let n = 5 in
  let lits = List.init n (fun i -> i + 1) in
  let enc = T.build ~next_var:(n + 1) lits in
  check Alcotest.int "n outputs" n (List.length enc.T.outputs);
  let f = F.create ~num_vars:(enc.T.next_var - 1) enc.T.clauses in
  List.iter
    (fun pattern ->
      let assumptions =
        List.mapi (fun i b -> if b then i + 1 else -(i + 1)) pattern
      in
      match (Ec_sat.Cdcl.solve_response ~assumptions f).outcome with
      | O.Sat a ->
        let count = List.length (List.filter Fun.id pattern) in
        List.iteri
          (fun i o ->
            let expected = i < count in
            check Alcotest.bool
              (Printf.sprintf "output %d for count %d" (i + 1) count)
              expected (A.lit_true a o))
          enc.T.outputs
      | _ -> Alcotest.fail "counting tree must be satisfiable under any inputs")
    [ [ false; false; false; false; false ];
      [ true; false; true; false; false ];
      [ true; true; true; true; true ];
      [ false; true; false; true; true ] ]

let test_edges () =
  let lits = [ 1; 2; 3 ] in
  let e = T.at_most ~next_var:4 lits 3 in
  check Alcotest.int "k>=n empty" 0 (List.length e.T.clauses);
  let e0 = T.at_most ~next_var:4 lits 0 in
  check Alcotest.int "k=0 units" 3 (List.length e0.T.clauses);
  let imposs = T.at_least ~next_var:4 lits 4 in
  check Alcotest.bool "at_least > n unsat" true
    (List.exists Ec_cnf.Clause.is_empty imposs.T.clauses);
  Alcotest.check_raises "collision"
    (Invalid_argument "Totalizer.build: next_var collides with input literals")
    (fun () -> ignore (T.build ~next_var:3 lits))

let prop_agrees_with_sequential =
  QCheck.Test.make ~name:"totalizer at_most = sequential counter" ~count:150
    QCheck.(pair (int_range 1 6) (int_range 0 6))
    (fun (n, k) ->
      let lits = List.init n (fun i -> i + 1) in
      let tot = T.at_most ~next_var:(n + 1) lits k in
      let seq = Ec_sat.Cardinality.at_most ~next_var:(n + 1) lits k in
      let f_tot = F.create ~num_vars:(max n (tot.T.next_var - 1)) tot.T.clauses in
      let f_seq =
        F.create
          ~num_vars:(max n (seq.Ec_sat.Cardinality.next_var - 1))
          seq.Ec_sat.Cardinality.clauses
      in
      (* probe every input pattern *)
      let rec patterns i acc =
        if i > n then [ acc ]
        else patterns (i + 1) (i :: acc) @ patterns (i + 1) (-i :: acc)
      in
      List.for_all
        (fun assumptions ->
          let a = O.is_sat ((Ec_sat.Cdcl.solve_response ~assumptions f_tot).outcome) in
          let b = O.is_sat ((Ec_sat.Cdcl.solve_response ~assumptions f_seq).outcome) in
          a = b)
        (patterns 1 []))

(* Satellite property for the core-guided MaxSAT engine: a totalizer
   strengthened incrementally along a random (non-monotone, repeating)
   bound schedule is equivalent — at every covered bound k — to a
   fresh [at_most] encoding of k, and only ever emits delta clauses:
   [emitted] equals the clauses handed back so far, and re-covering a
   bound emits nothing. *)
let prop_incremental_equals_fresh =
  QCheck.Test.make ~name:"incremental strengthening = fresh encoding at every bound"
    ~count:60
    QCheck.(pair (int_range 1 5) (list_of_size (QCheck.Gen.int_range 1 4) (int_range 0 5)))
    (fun (n, schedule) ->
      let lits = List.init n (fun i -> i + 1) in
      let tot = T.incremental ~next_var:(n + 1) lits in
      let acc = ref [] in
      let ok = ref true in
      (* all 2^n full input patterns, as assumption lists *)
      let rec patterns i row =
        if i > n then [ row ]
        else patterns (i + 1) (i :: row) @ patterns (i + 1) (-i :: row)
      in
      let all_patterns = patterns 1 [] in
      List.iter
        (fun k ->
          acc := !acc @ T.increase_bound tot k;
          (* delta-only: emitted tracks exactly what was handed back,
             and asking for an already-covered bound adds nothing *)
          if T.emitted tot <> List.length !acc then ok := false;
          if T.increase_bound tot (T.bound tot) <> [] then ok := false;
          let c = min (T.bound tot) (n - 1) in
          if c >= 0 then begin
            let f_inc = F.create ~num_vars:(T.inc_next_var tot - 1) !acc in
            let fresh = T.at_most ~next_var:(n + 1) lits c in
            let f_fresh = F.create ~num_vars:(max n (fresh.T.next_var - 1)) fresh.T.clauses in
            let cap = Ec_cnf.Lit.negate (T.output tot (c + 1)) in
            List.iter
              (fun pat ->
                let count = List.length (List.filter (fun l -> l > 0) pat) in
                let inc_sat =
                  O.is_sat ((Ec_sat.Cdcl.solve_response ~assumptions:(cap :: pat) f_inc).outcome)
                in
                let fresh_sat =
                  O.is_sat ((Ec_sat.Cdcl.solve_response ~assumptions:pat f_fresh).outcome)
                in
                if inc_sat <> fresh_sat || fresh_sat <> (count <= c) then ok := false)
              all_patterns
          end)
        schedule;
      !ok)

let tests =
  [ ( "sat.totalizer",
      [ Alcotest.test_case "unary outputs count" `Quick test_outputs_count;
        Alcotest.test_case "edge cases" `Quick test_edges;
        qtest prop_agrees_with_sequential;
        qtest prop_incremental_equals_fresh ] ) ]
