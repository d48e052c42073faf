(* Chaos tests: the solve stack under injected faults.

   The robustness contract is two-sided.  Safety: no uncertified Sat
   ever leaves Backend/Flow, whatever an engine does — corrupt models
   and forged verdicts are demoted to [Unknown (Engine_failure _)].
   Liveness: one broken engine degrades gracefully — the randomized
   engine is retried reseeded, the fast-EC flow falls back to a full
   re-solve, and an exhausted plan leaves the stack working again.

   Every test arms an explicit plan through Ec_util.Fault and resets
   in teardown, so suites stay order-independent.  The corruption
   streams are seeded from ECSAT_FAULT_SEED when set (bench/ci.sh
   pins it), the library default otherwise. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module F = Ec_cnf.Formula
module A = Ec_cnf.Assignment
module O = Ec_sat.Outcome
module B = Ec_core.Backend
module Budget = Ec_util.Budget
module Fault = Ec_util.Fault
module Certify = Ec_core.Certify

let fault_seed =
  match Sys.getenv_opt "ECSAT_FAULT_SEED" with
  | Some s -> ( try int_of_string s with Failure _ -> 0xFA17)
  | None -> 0xFA17

(* Install [plan], run [k], always disarm. *)
let with_faults plan k =
  (match Fault.configure plan with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("fault plan rejected: " ^ msg));
  Fault.set_seed fault_seed;
  Fun.protect ~finally:Fault.reset k

(* A satisfiable instance that every engine can finish quickly but
   none solves without doing some work. *)
let sat_formula =
  F.of_lists ~num_vars:6
    [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 4 ]; [ -3; -4; 5 ]; [ 4; 6 ]; [ -5; -6; 1 ];
      [ 2; 5; 6 ] ]

(* Every variable critical (one unit clause each): whatever bit the
   seeded corruption stream flips, the model stops satisfying, so the
   demotion assertions hold for any ECSAT_FAULT_SEED. *)
let critical_formula = F.of_lists ~num_vars:4 [ [ 1 ]; [ -2 ]; [ 3 ]; [ -4 ] ]

let witness_of f =
  match (B.solve_response B.cdcl f).B.outcome with
  | O.Sat a -> a
  | O.Unsat | O.Unknown _ -> Alcotest.fail "fixture must be satisfiable"

let is_engine_failure = function
  | O.Unknown (Budget.Engine_failure _) -> true
  | O.Sat _ | O.Unsat | O.Unknown _ -> false

(* Safety invariant used everywhere: an outcome under faults is either
   a certified model or an honest non-answer — never an uncertified
   Sat, and (on satisfiable fixtures) never a false Unsat that the
   known witness refutes. *)
let assert_safe f outcome =
  match outcome with
  | O.Sat a -> (
    match Certify.check_model f a with
    | Ok () -> ()
    | Error msg -> Alcotest.fail ("uncertified Sat escaped: " ^ msg))
  | O.Unsat ->
    check Alcotest.bool "no false Unsat on a satisfiable fixture" false
      (Certify.refutes_unsat f ~witness:(witness_of f))
  | O.Unknown _ -> ()

(* ---- answer corruption is demoted, per engine ---- *)

let test_corrupt_demoted site backend () =
  with_faults (site ^ "=corrupt") (fun () ->
      let r = B.solve_response backend critical_formula in
      check Alcotest.bool (site ^ " fired") true (Fault.fired () > 0);
      assert_safe critical_formula r.B.outcome;
      check Alcotest.bool (site ^ " corrupt becomes engine-failure") true
        (is_engine_failure r.B.outcome))

(* The ILP backends' corrupted points either fail the row re-check, or
   decode to a broken assignment the model certification rejects;
   either way nothing uncertified may escape. *)
let test_corrupt_ilp_safe site backend () =
  with_faults (site ^ "=corrupt") (fun () ->
      let r = B.solve_response backend critical_formula in
      check Alcotest.bool (site ^ " fired") true (Fault.fired () > 0);
      assert_safe critical_formula r.B.outcome;
      check Alcotest.bool (site ^ " no Sat survives corruption") false
        (O.is_sat r.B.outcome))

(* ---- forged UNSAT is refuted by the witness ---- *)

let test_forged_unsat_refuted () =
  let w = witness_of sat_formula in
  with_faults "cdcl.answer=forge-unsat" (fun () ->
      let r = B.solve_response ~hint:w B.cdcl sat_formula in
      check Alcotest.bool "forge fired" true (Fault.fired () > 0);
      check Alcotest.bool "refuted verdict is engine-failure" true
        (is_engine_failure r.B.outcome);
      check Alcotest.bool "reason matches the outcome" true
        (O.Unknown r.B.reason = r.B.outcome))

(* Without a witness a forged UNSAT is indistinguishable from a real
   one — the documented limit.  It must still not crash or turn into
   an uncertified Sat. *)
let test_forged_unsat_without_witness () =
  with_faults "cdcl.answer=forge-unsat" (fun () ->
      let r = B.solve_response B.cdcl sat_formula in
      check Alcotest.bool "no model fabricated" false (O.is_sat r.B.outcome))

(* ---- exceptions are contained ---- *)

let test_raise_contained site backend () =
  with_faults (site ^ "=raise") (fun () ->
      let r = B.solve_response backend sat_formula in
      match r.B.outcome with
      | O.Unknown (Budget.Engine_failure (engine, detail)) ->
        check Alcotest.string (site ^ " names the engine") (B.name backend) engine;
        check Alcotest.bool (site ^ " carries the exception") true
          (String.length detail > 0)
      | O.Sat _ | O.Unsat | O.Unknown _ ->
        Alcotest.fail (site ^ ": injected exception was not contained"))

(* ---- budget burn degrades, not corrupts ---- *)

let test_burn_degrades site backend () =
  with_faults (site ^ "=burn") (fun () ->
      let r = B.solve_response backend sat_formula in
      check Alcotest.bool (site ^ " burn fired") true (Fault.fired () > 0);
      (* A burned solve must report resource exhaustion (or, for the
         engines that still manage an answer from their initial state,
         a certified model) — never a wrong verdict. *)
      assert_safe sat_formula r.B.outcome)

(* ---- heuristic retry ---- *)

let test_heuristic_retry_recovers () =
  with_faults "heuristic.solve=raise:1" (fun () ->
      let r = B.solve_response B.ilp_heuristic sat_formula in
      check Alcotest.int "raised exactly once" 1 (Fault.fired ());
      (* First attempt died; the reseeded retry must answer. *)
      assert_safe sat_formula r.B.outcome;
      check Alcotest.bool "retry recovered a model" true (O.is_sat r.B.outcome))

let test_heuristic_retry_exhausts () =
  with_faults "heuristic.solve=raise" (fun () ->
      let r = B.solve_response B.ilp_heuristic sat_formula in
      check Alcotest.int "initial try + bounded retries" 3 (Fault.fired ());
      check Alcotest.bool "exhausted retries report engine-failure" true
        (is_engine_failure r.B.outcome))

let test_non_heuristic_not_retried () =
  with_faults "cdcl.solve=raise" (fun () ->
      let r = B.solve_response B.cdcl sat_formula in
      check Alcotest.int "deterministic engine fails once" 1 (Fault.fired ());
      check Alcotest.bool "contained" true (is_engine_failure r.B.outcome))

(* ---- the EC flow under faults ---- *)

(* The change must invalidate the initial solution, or the fast path
   returns it untouched and no solve (hence no fault) happens.  On
   [x1 ∨ x2] the initial solution sets exactly one variable true (it
   hardly matters which); forbidding that variable forces a genuine —
   and still satisfiable — re-solve whatever the solver or seed. *)
let flow_fixture () =
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  match Ec_core.Flow.solve_initial f with
  | None -> Alcotest.fail "fixture must be satisfiable"
  | Some init ->
    let v =
      if A.value init.Ec_core.Flow.assignment 1 = A.True then 1
      else if A.value init.Ec_core.Flow.assignment 2 = A.True then 2
      else Alcotest.fail "fixture solution must set a variable"
    in
    (init, [ Ec_cnf.Change.Add_clause (Ec_cnf.Clause.make [ Ec_cnf.Lit.of_int (-v) ]) ])

let assert_flow_safe (r : Ec_core.Flow.response) =
  match r.Ec_core.Flow.result with
  | None -> ()
  | Some u -> (
    match Certify.check_model u.Ec_core.Flow.new_formula u.Ec_core.Flow.new_assignment with
    | Ok () -> ()
    | Error msg -> Alcotest.fail ("uncertified flow result escaped: " ^ msg))

let test_flow_under_fault plan () =
  let init, script = flow_fixture () in
  List.iter
    (fun strategy ->
      with_faults plan (fun () ->
          let r = Ec_core.Flow.apply_change_response ~strategy init script in
          assert_flow_safe r))
    [ Ec_core.Flow.Fast; Ec_core.Flow.Full;
      Ec_core.Flow.Preserve Ec_core.Preserving.default_engine;
      Ec_core.Flow.Preserve (Ec_core.Preserving.Sat_cardinality Ec_sat.Cdcl.default_options) ]

let test_flow_recovers_after_bounded_fault () =
  let init, script = flow_fixture () in
  with_faults "cdcl.answer=corrupt:1" (fun () ->
      (* The fast path's one solve is corrupted; the merge certification
         rejects it and the full-re-solve fallback (fault now spent)
         must deliver a certified model. *)
      let r = Ec_core.Flow.apply_change_response ~strategy:Ec_core.Flow.Fast init script in
      check Alcotest.int "corruption fired once" 1 (Fault.fired ());
      assert_flow_safe r;
      check Alcotest.bool "fallback recovered" true (r.Ec_core.Flow.result <> None))

let test_preserve_reports_counters () =
  let init, script = flow_fixture () in
  let r =
    Ec_core.Flow.apply_change_response
      ~strategy:(Ec_core.Flow.Preserve Ec_core.Preserving.default_engine) init script
  in
  match r.Ec_core.Flow.result with
  | None -> Alcotest.fail "preserve fixture must resolve"
  | Some u ->
    (* Regression: the Preserve branch used to discard the solver's
       counters and report Budget.zero. *)
    check Alcotest.bool "B&B nodes surfaced" true
      (u.Ec_core.Flow.counters.Budget.spent_nodes > 0)

(* ---- plan parsing and the reason variant ---- *)

let test_plan_parsing () =
  let ok plan =
    match Fault.configure plan with
    | Ok _ -> Fault.reset ()
    | Error msg -> Alcotest.fail (plan ^ " should parse: " ^ msg)
  in
  let bad plan =
    match Fault.configure plan with
    | Error _ -> check Alcotest.bool (plan ^ " leaves nothing armed") false (Fault.enabled ())
    | Ok _ -> Alcotest.fail (plan ^ " should be rejected")
  in
  ok "cdcl.answer=corrupt";
  ok "seed=7;cdcl.answer=corrupt;bnb.solve=raise:1";
  ok " cdcl.answer = forge-unsat : 2 ; heuristic.solve = burn ";
  ok "";
  bad "bogus";
  bad "cdcl.answer=explode";
  bad "nosuch.site=corrupt";
  bad "cdcl.answer=corrupt:zero";
  bad "seed=banana";
  (* *.solve sites take control-flow faults, *.answer sites take
     answer rewrites — a mismatched binding is a plan bug. *)
  bad "cdcl.solve=corrupt";
  bad "cdcl.answer=raise"

let test_disabled_is_noop () =
  Fault.reset ();
  check Alcotest.bool "nothing armed" false (Fault.enabled ());
  let r = B.solve_response B.cdcl sat_formula in
  check Alcotest.int "no fault fired" 0 (Fault.fired ());
  check Alcotest.bool "clean solve" true (O.is_sat r.B.outcome)

let test_engine_failure_to_string () =
  check Alcotest.string "reason rendering" "engine-failure(cdcl: boom)"
    (Budget.reason_to_string (Budget.Engine_failure ("cdcl", "boom")))

(* ---- certification rejects every single-bit flip ---- *)

(* On arbitrary formulas a one-variable flip can leave the formula
   satisfied, so the universal property is stated on formulas where
   every variable is critical: one unit clause per variable.  The
   satisfying model is forced, and any flip (or DC-ing) of any
   variable must be rejected by check_model. *)
let critical_gen =
  QCheck.Gen.(
    let* n = int_range 1 10 in
    let* signs = list_repeat n bool in
    return (n, signs))

let arb_critical =
  QCheck.make
    ~print:(fun (n, signs) ->
      Printf.sprintf "n=%d signs=[%s]" n
        (String.concat ";" (List.map string_of_bool signs)))
    critical_gen

let prop_flip_rejected =
  QCheck.Test.make ~name:"check_model rejects every single-bit flip" ~count:200
    arb_critical (fun (n, signs) ->
      let f =
        F.of_lists ~num_vars:n
          (List.mapi (fun i s -> [ (if s then i + 1 else -(i + 1)) ]) signs)
      in
      let model =
        List.fold_left
          (fun a (i, s) -> A.set a (i + 1) (if s then A.True else A.False))
          (A.make n)
          (List.mapi (fun i s -> (i, s)) signs)
      in
      Certify.check_model f model = Ok ()
      && List.for_all
           (fun v ->
             List.for_all
               (fun wrong -> Certify.check_model f (A.set model v wrong) <> Ok ())
               (let right = A.value model v in
                List.filter (fun x -> x <> right) [ A.True; A.False; A.Dc ]))
           (List.init n (fun i -> i + 1)))

let prop_certify_outcome_demotes =
  QCheck.Test.make ~name:"Certify.outcome demotes corrupted models" ~count:200
    arb_critical (fun (n, signs) ->
      let f =
        F.of_lists ~num_vars:n
          (List.mapi (fun i s -> [ (if s then i + 1 else -(i + 1)) ]) signs)
      in
      let model =
        List.fold_left
          (fun a (i, s) -> A.set a (i + 1) (if s then A.True else A.False))
          (A.make n)
          (List.mapi (fun i s -> (i, s)) signs)
      in
      let rng = Ec_util.Rng.create fault_seed in
      let corrupted = O.corrupt rng (O.Sat model) in
      match Certify.outcome ~engine:"test" f corrupted with
      | O.Unknown (Budget.Engine_failure ("test", _)) -> true
      | O.Sat a -> A.satisfies a f (* flip landed on an equal value: must still satisfy *)
      | O.Unsat | O.Unknown _ -> false)

let tests =
  [ ( "robustness.containment",
      [ Alcotest.test_case "cdcl corrupt demoted" `Quick
          (test_corrupt_demoted "cdcl.answer" B.cdcl);
        Alcotest.test_case "bnb corrupt safe" `Quick
          (test_corrupt_ilp_safe "bnb.answer" B.ilp_exact);
        Alcotest.test_case "heuristic corrupt safe" `Quick
          (test_corrupt_ilp_safe "heuristic.answer" B.ilp_heuristic);
        Alcotest.test_case "forged unsat refuted by witness" `Quick
          test_forged_unsat_refuted;
        Alcotest.test_case "forged unsat without witness stays safe" `Quick
          test_forged_unsat_without_witness;
        Alcotest.test_case "cdcl raise contained" `Quick
          (test_raise_contained "cdcl.solve" B.cdcl);
        Alcotest.test_case "bnb raise contained" `Quick
          (test_raise_contained "bnb.solve" B.ilp_exact);
        Alcotest.test_case "cdcl burn degrades" `Quick
          (test_burn_degrades "cdcl.solve" B.cdcl);
        Alcotest.test_case "bnb burn degrades" `Quick
          (test_burn_degrades "bnb.solve" B.ilp_exact);
        Alcotest.test_case "heuristic retry recovers" `Quick
          test_heuristic_retry_recovers;
        Alcotest.test_case "heuristic retry exhausts honestly" `Quick
          test_heuristic_retry_exhausts;
        Alcotest.test_case "deterministic engines are not retried" `Quick
          test_non_heuristic_not_retried ] );
    ( "robustness.flow",
      [ Alcotest.test_case "flow safe under corrupt" `Quick
          (test_flow_under_fault "cdcl.answer=corrupt;bnb.answer=corrupt");
        Alcotest.test_case "flow safe under forge" `Quick
          (test_flow_under_fault "cdcl.answer=forge-unsat;bnb.answer=forge-unsat");
        Alcotest.test_case "flow safe under raise" `Quick
          (test_flow_under_fault "cdcl.solve=raise;bnb.solve=raise");
        Alcotest.test_case "flow safe under burn" `Quick
          (test_flow_under_fault "cdcl.solve=burn;bnb.solve=burn");
        Alcotest.test_case "flow recovers after bounded fault" `Quick
          test_flow_recovers_after_bounded_fault;
        Alcotest.test_case "preserve branch reports counters" `Quick
          test_preserve_reports_counters ] );
    ( "robustness.fault-plans",
      [ Alcotest.test_case "plan parsing" `Quick test_plan_parsing;
        Alcotest.test_case "disabled faults are a no-op" `Quick test_disabled_is_noop;
        Alcotest.test_case "engine-failure rendering" `Quick
          test_engine_failure_to_string ] );
    ( "robustness.certify",
      [ qtest prop_flip_rejected; qtest prop_certify_outcome_demotes ] ) ]
