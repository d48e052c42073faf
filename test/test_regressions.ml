(* Pinned regressions: the exact counterexamples that exposed bugs
   during development, kept deterministic so they can never return.

   R1 — CDCL declared SAT with every variable assigned without checking
        assumptions that had not been re-decided after a restart or
        level-0 propagation (sound model, wrong verdict under
        assumptions).
   R2 — an incremental session attached a clause whose two watched
        literals were already false at level 0; watch lists only fire
        on new enqueues, so the conflict was never seen and the session
        answered SAT on an unsatisfiable accumulation.
   R4 — every SAT model was built by one [Assignment.set] per variable,
        and each [set] copies the whole assignment, so a model over n
        variables cost O(n²) words: 8.7 M major words per preserving-EC
        request on f600.
   R5 — every branch-and-bound node rebuilt a per-row active array and
        rescanned each variable's occurrence list to pick its branch,
        and allocated a fresh propagation queue: 47 059 words per node
        on the enabled jnh1 model at scale 0.3 (25 396 rows).
   R6 — every fast-EC request paid for the whole formula several times
        over: one clause-array copy per change, an occurrence index
        rebuilt for the modified formula, a closure per clause in every
        model check, and a CDCL solve of the cone that allocated and
        decided all n variables: about 380 words per clause of the
        modified f600 formula per request from a CDCL initial
        solution.
   R7 — every enabling-EC row was a record holding a list of boxed
        (coefficient, variable) pairs and a formatted "c<i>" name,
        copied again into a record of its own when branch and bound
        read the model: about 324 words per row to build and solve 50
        enabled par8-1-c instances. *)

let check = Alcotest.check

module F = Ec_cnf.Formula
module C = Ec_cnf.Clause
module A = Ec_cnf.Assignment
module O = Ec_sat.Outcome

(* R1: units fix v2, v4, ~v3; assumptions [1; -2] contradict the unit
   (v2).  The solver fills the remaining variable by decision and used
   to answer SAT before checking the never-decided assumption -2. *)
let test_r1_assumptions_checked_at_full_assignment () =
  let f = F.of_lists ~num_vars:4 [ [ 2; -3; 4 ]; [ 2 ]; [ 4 ]; [ -3 ] ] in
  (match (Ec_sat.Cdcl.solve_response ~assumptions:[ 1; -2 ] f).outcome with
  | O.Unsat -> ()
  | O.Sat _ -> Alcotest.fail "assumption -2 contradicts the unit (v2)"
  | O.Unknown _ -> Alcotest.fail "no budget was set");
  (* equivalence with posting the assumptions as units *)
  let g = F.add_clauses f [ C.make [ 1 ]; C.make [ -2 ] ] in
  check Alcotest.string "unit form agrees" "unsat"
    (O.to_string (Ec_sat.Cdcl.solve_response g).outcome)

(* R2: after the first solve every literal of the added clause
   (~v3 ~v5 ~v7) is already false at level 0; the session must rewind
   propagation to catch it. *)
let test_r2_session_sees_root_falsified_clause () =
  let f = F.of_lists ~num_vars:7 [ [ 3 ]; [ 5 ]; [ 7 ] ] in
  let s = Ec_sat.Incremental.create f in
  check Alcotest.bool "initially sat" true (O.is_sat (Ec_sat.Incremental.solve s));
  Ec_sat.Incremental.add_clause s (C.make [ -3; -5; -7 ]);
  check Alcotest.string "falsified-at-root clause detected" "unsat"
    (O.to_string (Ec_sat.Incremental.solve s))

(* The same shape interleaved with growth and further additions. *)
let test_r2_session_interleaved () =
  let f = F.of_lists ~num_vars:4 [ [ 1 ]; [ 2 ] ] in
  let s = Ec_sat.Incremental.create f in
  ignore (Ec_sat.Incremental.solve s);
  Ec_sat.Incremental.add_clause s (C.make [ 4 ]);
  ignore (Ec_sat.Incremental.solve s);
  Ec_sat.Incremental.add_clause s (C.make [ -1; -2; -4 ]);
  check Alcotest.string "detected after growth" "unsat"
    (O.to_string (Ec_sat.Incremental.solve s))

(* R4: words allocated by [run] alone.  A full major collection
   before each reading flushes the counters: OCaml 5 adds direct
   major-heap allocations to them only at a major slice. *)
let words_allocated run =
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  run ();
  Gc.full_major ();
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)

(* The satisfiable chain (x1 ∨ x2) ∧ (x2 ∨ x3) ∧ ... over n variables. *)
let chain n = F.of_lists ~num_vars:n (List.init (n - 1) (fun i -> [ i + 1; i + 2 ]))

let all_true n = A.init n (fun _ -> A.True)

(* Breaks only the chain's first clause, so preserving EC must encode
   and solve, and its optimum flips one variable. *)
let first_pair_false n = A.init n (fun v -> if v <= 2 then A.False else A.True)

(* Each case prepares its input outside the measurement and returns
   the call to measure.  From n = 500 to n = 2000 linear growth
   multiplies the words by about 4, quadratic growth by about 16. *)
let test_r4_models_cost_linear_words () =
  let cases =
    [ ("Cdcl.solve_response", fun n ->
        let f = chain n in
        fun () -> ignore (Ec_sat.Cdcl.solve_response f));
      ("Incremental.solve", fun n ->
        let s = Ec_sat.Incremental.create (chain n) in
        fun () -> ignore (Ec_sat.Incremental.solve s));
      ("Minimize.recover_dc", fun n ->
        let f = chain n and a = all_true n in
        fun () -> ignore (Ec_sat.Minimize.recover_dc f a));
      ("Preserving.resolve Sat_maxsat", fun n ->
        let f = chain n and reference = first_pair_false n in
        check Alcotest.bool "the reference breaks the chain" false (A.satisfies reference f);
        let engine = Ec_core.Preserving.Sat_maxsat Ec_sat.Maxsat.default_options in
        fun () -> ignore (Ec_core.Preserving.resolve ~engine f ~reference));
      ("Preserving.resolve kept-all", fun n ->
        let f = chain n and reference = all_true n in
        let engine = Ec_core.Preserving.Sat_maxsat Ec_sat.Maxsat.default_options in
        fun () -> ignore (Ec_core.Preserving.resolve ~engine f ~reference)) ]
  in
  let superlinear =
    List.filter_map
      (fun (name, prepare) ->
        let small = words_allocated (prepare 500) and large = words_allocated (prepare 2000) in
        if large /. small < 6.0 then None
        else
          Some
            (Printf.sprintf "%s: %.0f words at n=2000 vs %.0f at n=500 (x%.1f, want < x6)" name
               large small (large /. small)))
      cases
  in
  check (Alcotest.list Alcotest.string) "no superlinear model construction" [] superlinear

(* R5: words allocated between two readings.  Arrays above 256 words
   go straight to the major heap, so the count is minor + major −
   promoted; the minor collection first flushes the counters. *)
let words_now () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The slope between a 1 000- and a 2 000-node cap cancels the set-up
   (normalizing the rows, the initial activities).  A node that pays
   for what its fixes touch allocates a small fraction of a per-row
   array. *)
let test_r5_bnb_node_words () =
  let f =
    (Ec_instances.Registry.(build (scale 0.3 (find "jnh1")))).Ec_instances.Registry.formula
  in
  let enc = Ec_core.Encode.of_formula f in
  ignore (Ec_core.Enabling.add Ec_core.Enabling.Constraints enc);
  let model = Ec_core.Encode.model enc in
  let rows = Ec_ilpsolver.Rows.num_rows (Ec_ilpsolver.Rows.of_model model) in
  let run cap =
    let options =
      { Ec_ilpsolver.Bnb.default_options with
        budget = Ec_util.Budget.create ~nodes:cap () }
    in
    let before = words_now () in
    let r = Ec_ilpsolver.Bnb.solve_response ~options model in
    (words_now () -. before, r.Ec_ilpsolver.Bnb.stats.Ec_ilpsolver.Bnb.nodes)
  in
  let small_words, small_nodes = run 1000 in
  let large_words, large_nodes = run 2000 in
  check Alcotest.(pair int int) "both solves stop at their cap" (1001, 2001)
    (small_nodes, large_nodes);
  let per_node = (large_words -. small_words) /. float_of_int (large_nodes - small_nodes) in
  if per_node >= float_of_int (rows / 10) then
    Alcotest.failf "%.0f words per node on %d rows, want < %d" per_node rows (rows / 10)

(* R6: fast-EC requests on f600 (Table 2's change: eliminate 3
   variables, add 10 width-3 clauses) through the flow.  From a CDCL
   initial solution the cone spans most of the formula (about 577 of
   600 variables), so a request is O(formula) whatever it does; what is
   pinned is the constant.  A request that pays for its change and its
   cone once allocates about 67 words per clause of the modified
   formula here, against about 380 before. *)
let test_r6_fast_ec_words_per_clause () =
  let f = (Ec_instances.Registry.(build (find "f600"))).Ec_instances.Registry.formula in
  let initial =
    match Ec_core.Flow.solve_initial f with
    | Some i -> i
    | None -> Alcotest.fail "f600 is satisfiable"
  in
  let rng = Ec_util.Rng.create 6 in
  let scripts =
    List.init 50 (fun _ ->
        Ec_cnf.Change.fast_ec_script rng f ~eliminate:3 ~add:10 ~clause_width:3)
  in
  let clauses = ref 0 in
  let before = words_now () in
  List.iter
    (fun script ->
      let r = Ec_core.Flow.apply_change_response ~strategy:Ec_core.Flow.Fast initial script in
      match r.Ec_core.Flow.result with
      | Some u -> clauses := !clauses + F.num_clauses u.Ec_core.Flow.new_formula
      | None -> Alcotest.fail "fast EC answers every request")
    scripts;
  let per_clause = (words_now () -. before) /. float_of_int !clauses in
  if per_clause >= 100.0 then
    Alcotest.failf "%.1f words per request per clause, want < 100" per_clause

(* R7: enabling EC on 50 par8-1-c instances, then B&B in decision
   mode, as one enabling request does.  Rows stored flat from posting
   to B&B cost about 117 words each here. *)
let test_r7_enabling_words_per_row () =
  let base = Ec_instances.Registry.find "par8-1-c" in
  let formulas =
    List.init 50 (fun i ->
        (Ec_instances.Registry.build { base with Ec_instances.Registry.seed = i + 1 })
          .Ec_instances.Registry.formula)
  in
  let rows = ref 0 in
  let before = words_now () in
  List.iter
    (fun f ->
      let enc = Ec_core.Encode.of_formula f in
      ignore (Ec_core.Enabling.add Ec_core.Enabling.Constraints enc);
      let model = Ec_core.Encode.model enc in
      rows := !rows + Ec_ilp.Model.num_constrs model;
      let r = Ec_ilpsolver.Bnb.solve_decision_response model in
      if not (Ec_ilp.Solution.has_point r.Ec_ilpsolver.Bnb.solution) then
        Alcotest.fail "every instance has an enabled solution")
    formulas;
  let per_row = (words_now () -. before) /. float_of_int !rows in
  if per_row >= 180.0 then
    Alcotest.failf "%.1f words per enabled row, want < 180" per_row

let tests =
  [ ( "regressions",
      [ Alcotest.test_case "R1 assumptions at full assignment" `Quick
          test_r1_assumptions_checked_at_full_assignment;
        Alcotest.test_case "R2 session root-falsified clause" `Quick
          test_r2_session_sees_root_falsified_clause;
        Alcotest.test_case "R2 interleaved growth" `Quick test_r2_session_interleaved;
        Alcotest.test_case "R4 models cost linear words" `Quick
          test_r4_models_cost_linear_words;
        Alcotest.test_case "R5 B&B node words below rows/10" `Quick test_r5_bnb_node_words;
        Alcotest.test_case "R6 fast-EC words per clause" `Quick
          test_r6_fast_ec_words_per_clause;
        Alcotest.test_case "R7 enabling words per row" `Quick
          test_r7_enabling_words_per_row ] ) ]
