(* Portfolio racing tests.

   Four contracts: the [jobs <= 1] path is the sequential solver
   verbatim (determinism); every engine observes the cooperative
   cancellation flag (losers stop instead of running to exhaustion);
   the winning response aggregates the spend of all racers; and under
   injected faults a crashed or stalled racer never wins — and never
   costs the healthy racers the race (liveness).

   Like Test_robustness, every chaos test arms an explicit plan and
   disarms in teardown, so suites stay order-independent. *)

let check = Alcotest.check

module F = Ec_cnf.Formula
module O = Ec_sat.Outcome
module B = Ec_core.Backend
module Budget = Ec_util.Budget
module Fault = Ec_util.Fault
module Pool = Ec_util.Pool

let with_faults plan k =
  (match Fault.configure plan with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("fault plan rejected: " ^ msg));
  Fun.protect ~finally:Fault.reset k

(* Satisfiable; forces a little search in every engine. *)
let sat_formula =
  F.of_lists ~num_vars:8
    [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 4 ]; [ -3; -4; 5 ]; [ 4; 6 ]; [ -5; -6; 1 ];
      [ 2; 5; 6 ]; [ -7; 8 ]; [ 7; -8 ]; [ 1; 7 ] ]

(* Pigeonhole PHP(4,3): unsatisfiable, and no engine refutes it
   without search, so pre-set cancellation is observed before any
   verdict. Variable p(i,h) = 3*(i-1)+h. *)
let php43 =
  let p i h = (3 * (i - 1)) + h in
  let somewhere = List.init 4 (fun i -> List.init 3 (fun h -> p (i + 1) (h + 1))) in
  let conflicts =
    List.concat_map
      (fun h ->
        let pairs = ref [] in
        for i = 1 to 4 do
          for j = i + 1 to 4 do
            pairs := [ -p i h; -p j h ] :: !pairs
          done
        done;
        !pairs)
      [ 1; 2; 3 ]
  in
  F.of_lists ~num_vars:12 (somewhere @ conflicts)

let counters_equal a b =
  a.Budget.spent_conflicts = b.Budget.spent_conflicts
  && a.Budget.spent_nodes = b.Budget.spent_nodes
  && a.Budget.spent_pivots = b.Budget.spent_pivots
  && a.Budget.spent_restarts = b.Budget.spent_restarts
  && a.Budget.spent_iterations = b.Budget.spent_iterations

(* --- pool ------------------------------------------------------- *)

let test_pool_map_order () =
  let xs = List.init 40 Fun.id in
  let ys =
    Pool.with_pool 4 (fun pool -> Pool.map_list pool (fun x -> x * x) xs)
  in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * x) xs) ys

let test_pool_race () =
  let thunks =
    [ (fun () -> 1); (fun () -> 42); (fun () -> failwith "racer down") ]
  in
  let r =
    Pool.with_pool 3 (fun pool ->
        Pool.race pool ~accept:(fun x -> x = 42) ~on_winner:(fun _ -> ()) thunks)
  in
  check (Alcotest.option Alcotest.int) "accepted thunk wins" (Some 1) r.Pool.winner;
  (match r.Pool.results.(0) with
  | Pool.Returned 1 -> ()
  | _ -> Alcotest.fail "non-accepted result should still be reported");
  match r.Pool.results.(2) with
  | Pool.Raised _ -> ()
  | Pool.Returned _ -> Alcotest.fail "crashed thunk must report Raised"

let test_pool_shutdown () =
  let pool = Pool.create 2 in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  match Pool.submit pool (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "submit after shutdown must be rejected"

(* --- cancellation ----------------------------------------------- *)

(* A pre-raised flag stops every engine at its first budget tick:
   the loser's fate in a race, observed deterministically. *)
let test_engines_observe_cancellation () =
  List.iter
    (fun stage ->
      let budget, flag = Budget.with_cancel (Budget.create ()) in
      Atomic.set flag true;
      let r = B.solve_response ~budget stage php43 in
      check Alcotest.string
        ("cancelled: " ^ B.name stage)
        "cancelled"
        (Budget.reason_to_string r.B.reason);
      match r.B.outcome with
      | O.Unknown Budget.Cancelled -> ()
      | _ -> Alcotest.fail (B.name stage ^ ": cancelled solve must be Unknown"))
    [ B.cdcl; B.dpll; B.ilp_exact; B.ilp_heuristic ]

(* --- portfolio racing ------------------------------------------- *)

let one_winner reports =
  match List.filter (fun rep -> rep.B.racer_won) reports with
  | [ w ] -> w
  | ws -> Alcotest.failf "expected exactly one winner, got %d" (List.length ws)

let test_portfolio_sat () =
  let racers = B.default_portfolio ~jobs:3 () in
  let pr = B.solve_portfolio racers sat_formula in
  (match pr.B.response.B.outcome with
  | O.Sat a -> Alcotest.(check bool) "model satisfies" true (Ec_cnf.Assignment.satisfies a sat_formula)
  | _ -> Alcotest.fail "portfolio must find sat");
  check Alcotest.int "one report per racer" 3 (List.length pr.B.reports);
  let w = one_winner pr.B.reports in
  check Alcotest.string "winner engine reported" w.B.racer_engine
    pr.B.response.B.engine

let test_portfolio_unsat () =
  let pr = B.solve_portfolio (B.default_portfolio ~jobs:2 ()) php43 in
  match pr.B.response.B.outcome with
  | O.Unsat -> ignore (one_winner pr.B.reports)
  | _ -> Alcotest.fail "portfolio must refute PHP(4,3)"

let test_counters_aggregated () =
  let pr = B.solve_portfolio (B.default_portfolio ~jobs:3 ()) sat_formula in
  let total =
    List.fold_left
      (fun acc rep -> Budget.add acc rep.B.racer_counters)
      Budget.zero pr.B.reports
  in
  Alcotest.(check bool)
    "response spend = sum over racers" true
    (counters_equal total pr.B.response.B.counters)

(* --- chaos ------------------------------------------------------- *)

let test_chaos_crashed_racer_never_wins () =
  with_faults "portfolio.racer=raise:1" (fun () ->
      let pr = B.solve_portfolio (B.default_portfolio ~jobs:2 ()) sat_formula in
      Alcotest.(check bool) "fault fired" true (Fault.fired () >= 1);
      (match pr.B.response.B.outcome with
      | O.Sat _ -> ()
      | _ -> Alcotest.fail "healthy racer must still win");
      let crashed =
        List.filter
          (fun rep ->
            match rep.B.racer_reason with
            | Budget.Engine_failure _ -> true
            | _ -> false)
          pr.B.reports
      in
      check Alcotest.int "exactly one racer crashed" 1 (List.length crashed);
      List.iter
        (fun rep ->
          Alcotest.(check bool) "crashed racer did not win" false rep.B.racer_won)
        crashed;
      ignore (one_winner pr.B.reports))

let test_chaos_stalled_domain_loses () =
  with_faults "portfolio.domain=delay:1" (fun () ->
      let pr = B.solve_portfolio (B.default_portfolio ~jobs:2 ()) sat_formula in
      check Alcotest.int "delay fired" 1 (Fault.fired ());
      match pr.B.response.B.outcome with
      | O.Sat _ -> ignore (one_winner pr.B.reports)
      | _ -> Alcotest.fail "race must conclude despite a stalled domain")

let test_chaos_all_racers_crash () =
  with_faults "portfolio.racer=raise" (fun () ->
      let pr = B.solve_portfolio (B.default_portfolio ~jobs:2 ()) sat_formula in
      (match pr.B.response.B.outcome with
      | O.Unknown (Budget.Engine_failure _) -> ()
      | _ -> Alcotest.fail "total loss must surface as an engine failure");
      List.iter
        (fun rep ->
          Alcotest.(check bool) "no winner among crashed racers" false
            rep.B.racer_won)
        pr.B.reports)

let tests =
  [ ( "portfolio",
      [ Alcotest.test_case "pool map_list preserves order" `Quick test_pool_map_order;
        Alcotest.test_case "pool race: first accepted wins, crash reported" `Quick
          test_pool_race;
        Alcotest.test_case "pool shutdown is final and idempotent" `Quick
          test_pool_shutdown;
        Alcotest.test_case "every engine observes cancellation" `Quick
          test_engines_observe_cancellation;
        Alcotest.test_case "portfolio certifies a sat instance" `Quick
          test_portfolio_sat;
        Alcotest.test_case "portfolio refutes an unsat instance" `Quick
          test_portfolio_unsat;
        Alcotest.test_case "winner aggregates all racers' counters" `Quick
          test_counters_aggregated;
        Alcotest.test_case "chaos: crashed racer never wins the race" `Quick
          test_chaos_crashed_racer_never_wins;
        Alcotest.test_case "chaos: stalled domain does not block the race" `Quick
          test_chaos_stalled_domain_loses;
        Alcotest.test_case "chaos: all racers down degrades to engine failure" `Quick
          test_chaos_all_racers_crash ] ) ]
