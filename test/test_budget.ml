(* Tests for the unified resource-control plane (Ec_util.Budget): the
   record arithmetic, per-engine exhaustion with the right stop reason,
   bit-for-bit agreement with unbudgeted solves under a generous
   budget, and budget inheritance along fallback chains.  Everything
   here is deterministic: time budgets are exercised only at 0.0
   (always exhausted) — never with a live race against the clock. *)

let check = Alcotest.check

module Bu = Ec_util.Budget
module O = Ec_sat.Outcome
module F = Ec_cnf.Formula
module A = Ec_cnf.Assignment

let reason = Alcotest.testable (Fmt.of_to_string Bu.reason_to_string) ( = )

(* A small satisfiable formula that needs real search (no units). *)
let searchy =
  F.of_lists ~num_vars:20
    (List.init 60 (fun i ->
         [ 1 + (i mod 20); -(1 + ((i + 7) mod 20)); 1 + ((i + 13) mod 20) ]))

(* Pigeonhole (n+1 pigeons, n holes): unsat, needs many conflicts. *)
let php n =
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

(* ---- record arithmetic ---- *)

let test_create_combine () =
  check Alcotest.bool "unlimited" true (Bu.is_unlimited Bu.unlimited);
  check Alcotest.bool "of_time not unlimited" false (Bu.is_unlimited (Bu.of_time 1.0));
  let a = Bu.create ~conflicts:10 ~nodes:5 () in
  let b = Bu.create ~conflicts:3 ~time_s:2.0 () in
  let c = Bu.combine a b in
  check (Alcotest.option Alcotest.int) "min conflicts" (Some 3) c.Bu.conflicts;
  check (Alcotest.option Alcotest.int) "nodes kept" (Some 5) c.Bu.nodes;
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "time kept" (Some 2.0) c.Bu.time_s

let test_consume () =
  let b = Bu.create ~time_s:10.0 ~conflicts:10 ~nodes:10 ~iterations:10 () in
  let spent =
    { Bu.zero with
      Bu.spent_conflicts = 4;
      spent_nodes = 25;
      spent_iterations = 4;
      spent_wall_s = 2.5
    }
  in
  let r = Bu.consume b spent in
  check (Alcotest.option Alcotest.int) "conflicts" (Some 6) r.Bu.conflicts;
  check (Alcotest.option Alcotest.int) "nodes clamp at 0" (Some 0) r.Bu.nodes;
  check (Alcotest.option Alcotest.int) "iterations" (Some 6) r.Bu.iterations;
  check (Alcotest.option (Alcotest.float 1e-9)) "time" (Some 7.5) r.Bu.time_s;
  (* unlimited dimensions stay unlimited *)
  let u = Bu.consume Bu.unlimited spent in
  check Alcotest.bool "unlimited survives" true (Bu.is_unlimited u)

let test_cancel_flag () =
  let flag = Atomic.make false in
  let b = Bu.create ~conflicts:5 ~cancel:flag () in
  check Alcotest.bool "fresh flag down" false (Bu.cancelled b);
  Atomic.set flag true;
  check Alcotest.bool "raised" true (Bu.cancelled b);
  Alcotest.check_raises "unlimited has no flag"
    (Invalid_argument "Budget.cancel: budget has no cancellation flag (use ~cancel)")
    (fun () -> Bu.cancel Bu.unlimited)

(* ---- per-engine exhaustion, with the right reason ---- *)

let test_cdcl_reasons () =
  let solve budget f =
    Ec_sat.Cdcl.solve_response
      ~options:{ Ec_sat.Cdcl.default_options with budget }
      f
  in
  let r = solve (Bu.create ~conflicts:0 ()) (php 6) in
  check reason "conflicts 0" Bu.Conflict_budget r.Ec_sat.Cdcl.reason;
  let r = solve (Bu.create ~nodes:0 ()) searchy in
  check reason "nodes 0" Bu.Node_budget r.Ec_sat.Cdcl.reason;
  let r = solve (Bu.of_time 0.0) searchy in
  check reason "deadline 0" Bu.Deadline r.Ec_sat.Cdcl.reason;
  let r = solve (Bu.create ~cancel:(Atomic.make true) ()) searchy in
  check reason "pre-cancelled" Bu.Cancelled r.Ec_sat.Cdcl.reason;
  (match r.Ec_sat.Cdcl.outcome with
  | O.Unknown why -> check reason "outcome carries reason" Bu.Cancelled why
  | O.Sat _ | O.Unsat -> Alcotest.fail "cancelled solve must be Unknown")

let bnb_model () =
  let enc = Ec_core.Encode.of_formula searchy in
  Ec_core.Encode.model enc

let test_bnb_reason () =
  let r =
    Ec_ilpsolver.Bnb.solve_response
      ~options:
        { Ec_ilpsolver.Bnb.default_options with budget = Bu.create ~nodes:0 () }
      (bnb_model ())
  in
  check reason "bnb nodes 0" Bu.Node_budget r.Ec_ilpsolver.Bnb.reason;
  check Alcotest.bool "no optimal claim" true
    (r.Ec_ilpsolver.Bnb.solution.Ec_ilp.Solution.status <> Ec_ilp.Solution.Optimal)

let test_heuristic_reason () =
  let r =
    Ec_ilpsolver.Heuristic.solve_response
      ~options:
        { Ec_ilpsolver.Heuristic.default_options with
          budget = Bu.create ~iterations:0 ()
        }
      (bnb_model ())
  in
  check reason "heuristic flips 0" Bu.Iteration_budget r.Ec_ilpsolver.Heuristic.reason;
  check Alcotest.bool "at most one flip spent" true
    (r.Ec_ilpsolver.Heuristic.counters.Bu.spent_iterations <= 1)

(* A pre-raised flag stops every backend at its first budget tick — the
   serve watchdog's cancellation, observed deterministically.  PHP(4,3)
   is unsatisfiable and no engine refutes it without search, so the
   flag is seen before any verdict. *)
let test_engines_observe_cancellation () =
  List.iter
    (fun backend ->
      let budget = Bu.create ~cancel:(Atomic.make true) () in
      let r = Ec_core.Backend.solve_response ~budget backend (php 3) in
      let name = Ec_core.Backend.name backend in
      check reason ("cancelled: " ^ name) Bu.Cancelled r.Ec_core.Backend.reason;
      match r.Ec_core.Backend.outcome with
      | O.Unknown Bu.Cancelled -> ()
      | _ -> Alcotest.fail (name ^ ": cancelled solve must be Unknown"))
    Ec_core.Backend.[ cdcl; ilp_exact; ilp_heuristic; maxsat ]

(* ---- generous budgets do not change answers ---- *)

let assignment_eq a b =
  A.num_vars a = A.num_vars b
  && List.for_all
       (fun v -> A.value a v = A.value b v)
       (List.init (A.num_vars a) (fun i -> i + 1))

let test_generous_budget_bit_for_bit () =
  let generous = Bu.create ~conflicts:10_000_000 ~nodes:10_000_000 () in
  let plain = (Ec_sat.Cdcl.solve_response searchy).outcome in
  let budgeted =
    (Ec_sat.Cdcl.solve_response
      ~options:{ Ec_sat.Cdcl.default_options with budget = generous }
      searchy).outcome
  in
  (match (plain, budgeted) with
  | O.Sat a, O.Sat b ->
    check Alcotest.bool "same assignment" true (assignment_eq a b)
  | _, _ -> Alcotest.fail "searchy is satisfiable both ways");
  (* unsat verdicts survive budgets too *)
  let r =
    Ec_sat.Cdcl.solve_response
      ~options:{ Ec_sat.Cdcl.default_options with budget = generous }
      (php 4)
  in
  check Alcotest.string "php4 still unsat" "unsat" (O.to_string r.Ec_sat.Cdcl.outcome);
  check reason "completed" Bu.Completed r.Ec_sat.Cdcl.reason

(* ---- backend responses ---- *)

let test_backend_response () =
  let r = Ec_core.Backend.solve_response Ec_core.Backend.cdcl searchy in
  check Alcotest.string "engine" "cdcl" r.Ec_core.Backend.engine;
  check reason "completed" Bu.Completed r.Ec_core.Backend.reason;
  check Alcotest.bool "sat" true (O.is_sat r.Ec_core.Backend.outcome);
  let r =
    Ec_core.Backend.solve_response ~budget:(Bu.create ~conflicts:0 ())
      Ec_core.Backend.cdcl (php 6)
  in
  check reason "budget via ?budget" Bu.Conflict_budget r.Ec_core.Backend.reason

(* ---- the flow: fast EC -> full re-solve under one allowance ---- *)

let test_flow_budget_fallback () =
  let f = F.of_lists ~num_vars:6 [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ] in
  let init =
    match Ec_core.Flow.solve_initial f with
    | Some i -> i
    | None -> Alcotest.fail "trivially satisfiable"
  in
  (* A change the old solution violates, so the cone is non-empty. *)
  let script =
    [ Ec_cnf.Change.Add_clause
        (Ec_cnf.Clause.make
           (List.filter_map
              (fun v ->
                match A.value init.Ec_core.Flow.assignment v with
                | A.True -> Some (Ec_cnf.Lit.of_int (-v))
                | A.False -> Some (Ec_cnf.Lit.of_int v)
                | A.Dc -> None)
              [ 1; 2; 3; 4; 5; 6 ]))
    ]
  in
  (* Generous budget: the change is resolved and the spend is reported. *)
  (match
     (Ec_core.Flow.apply_change_response ~budget:(Bu.create ~conflicts:100_000 ()) init
        script)
       .Ec_core.Flow.result
   with
  | Some u ->
    check Alcotest.bool "resolved" true
      (A.satisfies u.Ec_core.Flow.new_assignment u.Ec_core.Flow.new_formula);
    check reason "completed" Bu.Completed u.Ec_core.Flow.reason
  | None -> Alcotest.fail "modified instance stays satisfiable");
  (* Exhausted deadline: the cone solve stops on Deadline, the fallback
     full solve inherits a zero remainder and stops at its first check
     — the flow reports failure instead of hanging. *)
  match
    (Ec_core.Flow.apply_change_response ~budget:(Bu.of_time 0.0) init script)
      .Ec_core.Flow.result
  with
  | None -> ()
  | Some u ->
    (* only acceptable if the cone was already satisfied without solving *)
    check reason "deadline" Bu.Deadline u.Ec_core.Flow.reason

(* A zero allowance must expire even when the first check reads the
   same clock value [start] read. *)
let test_zero_allowance_first_check () =
  let running = ref 0 in
  for _ = 1 to 10_000 do
    match Bu.check (Bu.start (Bu.of_time 0.0)) with
    | Some Bu.Deadline -> ()
    | _ -> incr running
  done;
  check Alcotest.int "fresh zero-allowance gauges not expired at the first check" 0 !running;
  check (Alcotest.option reason) "negative allowance" (Some Bu.Deadline)
    (Bu.check (Bu.start (Bu.of_time (-1.0))))

let tests =
  [ ( "budget.record",
      [ Alcotest.test_case "create/combine" `Quick test_create_combine;
        Alcotest.test_case "consume" `Quick test_consume;
        Alcotest.test_case "zero allowance expires at the first check" `Quick
          test_zero_allowance_first_check;
        Alcotest.test_case "cancellation flag" `Quick test_cancel_flag ] );
    ( "budget.engines",
      [ Alcotest.test_case "cdcl reasons" `Quick test_cdcl_reasons;
        Alcotest.test_case "bnb node budget" `Quick test_bnb_reason;
        Alcotest.test_case "heuristic iteration budget" `Quick test_heuristic_reason;
        Alcotest.test_case "every engine observes cancellation" `Quick
          test_engines_observe_cancellation;
        Alcotest.test_case "generous budget bit-for-bit" `Quick
          test_generous_budget_bit_for_bit ] );
    ( "budget.chain",
      [ Alcotest.test_case "backend response" `Quick test_backend_response;
        Alcotest.test_case "flow fast->full under one budget" `Quick
          test_flow_budget_fallback ] ) ]
