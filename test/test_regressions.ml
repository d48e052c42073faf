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
   R3 — the preprocessor eliminated a variable while a unit on it was
        still queued (pending units are invisible to occurrence lists),
        corrupting the resolvent set and reporting UNSAT on a
        satisfiable formula.
   R4 — every SAT model was built by one [Assignment.set] per variable,
        and each [set] copies the whole assignment, so a model over n
        variables cost O(n²) words: 8.7 M major words per preserving-EC
        request on f600.
   R5 — every branch-and-bound node rebuilt a per-row active array and
        rescanned each variable's occurrence list to pick its branch,
        and allocated a fresh propagation queue: 47 059 words per node
        on the enabled jnh1 model at scale 0.3 (25 396 rows). *)

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

(* R3: the original 16-clause counterexample, verbatim. *)
let test_r3_preprocessor_unit_elimination_race () =
  let f =
    F.of_lists ~num_vars:8
      [ [ -2; -4; 8 ]; [ -1; -5 ]; [ -1; -3; 5 ]; [ 6; -7 ]; [ -5; -8 ];
        [ 1; -7; -8 ]; [ 1; 2; -6; -7 ]; [ 2; -3; -4; -8 ]; [ 6 ];
        [ 3; -4; -6 ]; [ 3 ]; [ 1; 4; 5 ]; [ 3 ]; [ 2; 3; 4; -8 ]; [ -1; 2 ];
        [ 1; -3; 7 ] ]
  in
  check Alcotest.bool "formula is satisfiable" true
    (O.is_sat (Ec_sat.Cdcl.solve_response f).outcome);
  match Ec_sat.Preprocess.simplify f with
  | `Unsat -> Alcotest.fail "preprocessor must not refute a satisfiable formula"
  | `Simplified r -> (
    match (Ec_sat.Cdcl.solve_response r.Ec_sat.Preprocess.formula).outcome with
    | O.Sat a ->
      check Alcotest.bool "lifted model satisfies the original" true
        (A.satisfies (Ec_sat.Preprocess.reconstruct r a) f)
    | O.Unsat | O.Unknown _ -> Alcotest.fail "simplified form stays satisfiable")

(* R3 variant: pipeline answer must match plain CDCL on the same
   instance. *)
let test_r3_pipeline_agrees () =
  let f =
    F.of_lists ~num_vars:8
      [ [ -2; -4; 8 ]; [ -1; -5 ]; [ -1; -3; 5 ]; [ 6; -7 ]; [ -5; -8 ];
        [ 1; -7; -8 ]; [ 1; 2; -6; -7 ]; [ 2; -3; -4; -8 ]; [ 6 ];
        [ 3; -4; -6 ]; [ 3 ]; [ 1; 4; 5 ]; [ 3 ]; [ 2; 3; 4; -8 ]; [ -1; 2 ];
        [ 1; -3; 7 ] ]
  in
  check Alcotest.bool "pipeline = scratch" true
    (O.is_sat (Ec_sat.Preprocess.solve_with_preprocessing f)
    = O.is_sat (Ec_sat.Cdcl.solve_response f).outcome)

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
  let rows = Array.length (Ec_ilpsolver.Rows.of_model model).Ec_ilpsolver.Rows.rows in
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

let tests =
  [ ( "regressions",
      [ Alcotest.test_case "R1 assumptions at full assignment" `Quick
          test_r1_assumptions_checked_at_full_assignment;
        Alcotest.test_case "R2 session root-falsified clause" `Quick
          test_r2_session_sees_root_falsified_clause;
        Alcotest.test_case "R2 interleaved growth" `Quick test_r2_session_interleaved;
        Alcotest.test_case "R3 preprocessor unit/elimination race" `Quick
          test_r3_preprocessor_unit_elimination_race;
        Alcotest.test_case "R3 pipeline agreement" `Quick test_r3_pipeline_agrees;
        Alcotest.test_case "R4 models cost linear words" `Quick
          test_r4_models_cost_linear_words;
        Alcotest.test_case "R5 B&B node words below rows/10" `Quick test_r5_bnb_node_words ] ) ]
