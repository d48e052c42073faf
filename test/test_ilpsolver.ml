(* Tests for Ec_ilpsolver: Rows, Bnb (vs brute force), Heuristic. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module M = Ec_ilp.Model
module E = Ec_ilp.Linexpr
module S = Ec_ilp.Solution
module B = Ec_ilpsolver.Bnb
module H = Ec_ilpsolver.Heuristic
module R = Ec_ilpsolver.Rows

let feq = Alcotest.float 1e-6

(* ---- random 0-1 model generator + brute force ---- *)

type rand_model = {
  nvars : int;
  rows : (float array * M.relation * float) list;
  obj : float array;
  maximize : bool;
}

let build_model rm =
  let m = M.create () in
  for _ = 1 to rm.nvars do
    ignore (M.add_var m M.Binary)
  done;
  List.iter
    (fun (coeffs, rel, rhs) ->
      let terms = Array.to_list (Array.mapi (fun i c -> (c, i)) coeffs) in
      let terms = List.filter (fun (c, _) -> c <> 0.0) terms in
      M.add_constr m (E.of_terms terms) rel rhs)
    rm.rows;
  let obj_terms =
    List.filter (fun (c, _) -> c <> 0.0)
      (Array.to_list (Array.mapi (fun i c -> (c, i)) rm.obj))
  in
  M.set_objective m (if rm.maximize then M.Maximize else M.Minimize) (E.of_terms obj_terms);
  m

(* Exhaustive optimum over {0,1}^n; None if infeasible. *)
let brute_force rm =
  let best = ref None in
  let n = rm.nvars in
  for mask = 0 to (1 lsl n) - 1 do
    let x i = if mask land (1 lsl i) <> 0 then 1.0 else 0.0 in
    let feasible =
      List.for_all
        (fun (coeffs, rel, rhs) ->
          let lhs = ref 0.0 in
          Array.iteri (fun i c -> lhs := !lhs +. (c *. x i)) coeffs;
          match rel with
          | M.Le -> !lhs <= rhs +. 1e-9
          | M.Ge -> !lhs >= rhs -. 1e-9
          | M.Eq -> abs_float (!lhs -. rhs) <= 1e-9)
        rm.rows
    in
    if feasible then begin
      let v = ref 0.0 in
      Array.iteri (fun i c -> v := !v +. (c *. x i)) rm.obj;
      let better =
        match !best with
        | None -> true
        | Some b -> if rm.maximize then !v > b +. 1e-12 else !v < b -. 1e-12
      in
      if better then best := Some !v
    end
  done;
  !best

let rand_model_gen =
  QCheck.Gen.(
    let* nvars = int_range 2 8 in
    let* nrows = int_range 1 6 in
    let coeff = map float_of_int (int_range (-3) 3) in
    let row =
      let* coeffs = array_size (return nvars) coeff in
      let* rel = oneofl [ M.Le; M.Ge; M.Eq ] in
      let* rhs = map float_of_int (int_range (-2) 4) in
      return (coeffs, rel, rhs)
    in
    let* rows = list_repeat nrows row in
    let* obj = array_size (return nvars) coeff in
    let* maximize = bool in
    return { nvars; rows; obj; maximize })

let arb_rand_model =
  QCheck.make
    ~print:(fun rm -> M.to_string (build_model rm))
    rand_model_gen

let prop_bnb_matches_brute_force =
  QCheck.Test.make ~name:"bnb optimum = brute force" ~count:400 arb_rand_model
    (fun rm ->
      let model = build_model rm in
      let solution = (B.solve_response model).B.solution in
      match (brute_force rm, solution.S.status) with
      | None, S.Infeasible -> true
      | Some opt, S.Optimal ->
        abs_float (opt -. solution.S.objective) < 1e-6
        && Ec_ilp.Validate.is_feasible model solution.S.values
      | _, _ -> false)

let prop_bnb_greedy_off_agrees =
  QCheck.Test.make ~name:"bnb optimum independent of greedy completion" ~count:200
    arb_rand_model (fun rm ->
      let model () = build_model rm in
      let s1 = (B.solve_response (model ())).B.solution in
      let s2 =
        (B.solve_response ~options:{ B.default_options with greedy_completion = false }
           (model ()))
          .B.solution
      in
      match (s1.S.status, s2.S.status) with
      | S.Optimal, S.Optimal -> abs_float (s1.S.objective -. s2.S.objective) < 1e-6
      | S.Infeasible, S.Infeasible -> true
      | _, _ -> false)

let prop_bnb_lp_bounding_agrees =
  QCheck.Test.make ~name:"bnb optimum independent of LP bounding" ~count:150
    arb_rand_model (fun rm ->
      let model () = build_model rm in
      let s1 = (B.solve_response (model ())).B.solution in
      let s2 =
        (B.solve_response
           ~options:{ B.default_options with use_lp_bounding = true; lp_max_depth = 3 }
           (model ()))
          .B.solution
      in
      match (s1.S.status, s2.S.status) with
      | S.Optimal, S.Optimal -> abs_float (s1.S.objective -. s2.S.objective) < 1e-6
      | S.Infeasible, S.Infeasible -> true
      | _, _ -> false)

let prop_bnb_branching_agrees =
  QCheck.Test.make ~name:"bnb optimum independent of branching rule" ~count:200
    arb_rand_model (fun rm ->
      let model () = build_model rm in
      let s1 = (B.solve_response (model ())).B.solution in
      let s2 =
        (B.solve_response ~options:{ B.default_options with branching = B.First_unfixed }
           (model ()))
          .B.solution
      in
      match (s1.S.status, s2.S.status) with
      | S.Optimal, S.Optimal -> abs_float (s1.S.objective -. s2.S.objective) < 1e-6
      | S.Infeasible, S.Infeasible -> true
      | _, _ -> false)

let prop_heuristic_sound =
  QCheck.Test.make ~name:"heuristic points are feasible" ~count:150 arb_rand_model
    (fun rm ->
      let model = build_model rm in
      let options = { H.default_options with max_flips = 3000; max_restarts = 3 } in
      let solution = (H.solve_response ~options model).H.solution in
      match solution.S.status with
      | S.Feasible ->
        Ec_ilp.Validate.is_feasible model solution.S.values
        && brute_force rm <> None (* never claims feasible on infeasible models *)
      | S.Unknown -> true
      | S.Optimal | S.Infeasible | S.Unbounded -> false)

(* ---- targeted unit tests ---- *)

let test_bnb_knapsack () =
  let m = M.create () in
  let xs = List.init 4 (fun _ -> M.add_var m M.Binary) in
  let weights = [ 2.0; 3.0; 4.0; 5.0 ] and values = [ 3.0; 4.0; 5.0; 6.0 ] in
  M.add_constr m (E.of_terms (List.map2 (fun w x -> (w, x)) weights xs)) M.Le 5.0;
  M.set_objective m M.Maximize (E.of_terms (List.map2 (fun v x -> (v, x)) values xs));
  let r = B.solve_response m in
  let s = r.B.solution in
  check Alcotest.string "status" "optimal" (S.status_to_string s.S.status);
  check feq "knapsack optimum" 7.0 s.S.objective;
  check Alcotest.bool "some nodes explored" true (r.B.stats.B.nodes > 0)

let test_bnb_infeasible () =
  let m = M.create () in
  let x = M.add_var m M.Binary in
  let y = M.add_var m M.Binary in
  M.add_constr m (E.of_terms [ (1.0, x); (1.0, y) ]) M.Ge 3.0;
  let s = (B.solve_response m).B.solution in
  check Alcotest.string "infeasible" "infeasible" (S.status_to_string s.S.status)

let test_bnb_decision_stops_early () =
  (* decision mode returns Feasible (not Optimal) on the first point *)
  let m = M.create () in
  let xs = List.init 6 (fun _ -> M.add_var m M.Binary) in
  M.add_constr m (E.of_terms (List.map (fun x -> (1.0, x)) xs)) M.Ge 1.0;
  M.set_objective m M.Minimize (E.of_terms (List.map (fun x -> (1.0, x)) xs));
  let s = (B.solve_decision_response m).B.solution in
  check Alcotest.string "feasible" "feasible" (S.status_to_string s.S.status);
  check Alcotest.bool "point valid" true (Ec_ilp.Validate.is_feasible m s.S.values)

let test_bnb_node_budget () =
  (* a big unconstrained-ish optimization with a 1-node budget: Unknown
     or a feasible incumbent, never a bogus Optimal claim on a hard model *)
  let m = M.create () in
  let xs = List.init 16 (fun _ -> M.add_var m M.Binary) in
  List.iteri
    (fun i x ->
      if i > 0 then
        M.add_constr m (E.of_terms [ (1.0, List.nth xs (i - 1)); (1.0, x) ]) M.Ge 1.0)
    xs;
  M.set_objective m M.Minimize (E.of_terms (List.map (fun x -> (1.0, x)) xs));
  let s =
    (B.solve_response
       ~options:{ B.default_options with budget = Ec_util.Budget.create ~nodes:1 () }
       m)
      .B.solution
  in
  check Alcotest.bool "not optimal under 1-node budget" true
    (s.S.status <> S.Optimal)

let test_bnb_rejects_continuous () =
  let m = M.create () in
  ignore (M.add_var m (M.Continuous (0.0, 1.0)));
  Alcotest.check_raises "continuous rejected"
    (Invalid_argument "Rows.of_model: continuous variable in a 0-1 model") (fun () ->
      ignore (B.solve_response m))

let test_bnb_tie_seed_changes_solution () =
  (* On a model with many symmetric optima, different tie seeds can
     pick different points (same objective). *)
  let build () =
    let m = M.create () in
    let xs = List.init 8 (fun _ -> M.add_var m M.Binary) in
    M.add_constr m (E.of_terms (List.map (fun x -> (1.0, x)) xs)) M.Ge 4.0;
    m
  in
  let solve seed =
    (B.solve_response ~options:{ B.default_options with tie_seed = Some seed } (build ()))
      .B.solution
  in
  let s1 = solve 1 and s2 = solve 2 in
  check Alcotest.bool "both solved" true (S.has_point s1 && S.has_point s2)

let test_heuristic_simple_sat () =
  let m = M.create () in
  let x = M.add_var m M.Binary in
  let y = M.add_var m M.Binary in
  M.add_constr m (E.of_terms [ (1.0, x); (1.0, y) ]) M.Ge 1.0;
  M.add_constr m (E.of_terms [ (-1.0, x); (1.0, y) ]) M.Ge 0.0;
  let r = H.solve_response ~options:{ H.default_options with stop_at_first_feasible = true } m in
  check Alcotest.string "feasible" "feasible" (S.status_to_string r.H.solution.S.status);
  check Alcotest.bool "hit recorded" true (r.H.stats.H.feasible_hits >= 1)

let test_heuristic_warm_start () =
  let m = M.create () in
  let x = M.add_var m M.Binary in
  let y = M.add_var m M.Binary in
  M.add_constr m (E.of_terms [ (1.0, x) ]) M.Ge 1.0;
  M.add_constr m (E.of_terms [ (1.0, y) ]) M.Ge 1.0;
  let options =
    { H.default_options with
      stop_at_first_feasible = true;
      initial_point = Some [| 1; 1 |] }
  in
  let r = H.solve_response ~options m in
  check Alcotest.string "feasible at once" "feasible"
    (S.status_to_string r.H.solution.S.status);
  (* seeded at the solution: no flips needed before the first check *)
  check Alcotest.bool "few flips" true (r.H.stats.H.flips <= 1)

let test_rows_normalization () =
  let m = M.create () in
  let x = M.add_var m M.Binary in
  M.add_constr m (E.var x) M.Eq 1.0;
  M.set_objective m M.Maximize (E.of_terms ~constant:2.0 [ (3.0, x) ]);
  let sys = R.of_model m in
  check Alcotest.int "eq split into two rows" 2 (Array.length sys.R.rows);
  check Alcotest.bool "flip flag" true sys.R.flip_objective;
  check feq "reported objective" 5.0 (R.report_objective sys (-3.0));
  check Alcotest.bool "point feasible" true (R.point_feasible sys [| 1 |]);
  check Alcotest.bool "point infeasible" false (R.point_feasible sys [| 0 |]);
  check (Alcotest.list Alcotest.int) "violated rows" [ 1 ] (R.violated_rows sys [| 0 |])

let tests =
  [ ( "ilpsolver.bnb",
      [ Alcotest.test_case "knapsack" `Quick test_bnb_knapsack;
        Alcotest.test_case "infeasible" `Quick test_bnb_infeasible;
        Alcotest.test_case "decision mode" `Quick test_bnb_decision_stops_early;
        Alcotest.test_case "node budget" `Quick test_bnb_node_budget;
        Alcotest.test_case "rejects continuous" `Quick test_bnb_rejects_continuous;
        Alcotest.test_case "tie seed" `Quick test_bnb_tie_seed_changes_solution;
        qtest prop_bnb_matches_brute_force;
        qtest prop_bnb_greedy_off_agrees;
        qtest prop_bnb_lp_bounding_agrees;
        qtest prop_bnb_branching_agrees ] );
    ( "ilpsolver.heuristic",
      [ Alcotest.test_case "simple sat" `Quick test_heuristic_simple_sat;
        Alcotest.test_case "warm start" `Quick test_heuristic_warm_start;
        qtest prop_heuristic_sound ] );
    ( "ilpsolver.rows",
      [ Alcotest.test_case "normalization" `Quick test_rows_normalization ] ) ]
