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
    ignore (M.add_var m)
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
      | S.Optimal | S.Infeasible -> false)

(* ---- targeted unit tests ---- *)

let test_bnb_knapsack () =
  let m = M.create () in
  let xs = List.init 4 (fun _ -> M.add_var m) in
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
  let x = M.add_var m in
  let y = M.add_var m in
  M.add_constr m (E.of_terms [ (1.0, x); (1.0, y) ]) M.Ge 3.0;
  let s = (B.solve_response m).B.solution in
  check Alcotest.string "infeasible" "infeasible" (S.status_to_string s.S.status)

let test_bnb_decision_stops_early () =
  (* decision mode returns Feasible (not Optimal) on the first point *)
  let m = M.create () in
  let xs = List.init 6 (fun _ -> M.add_var m) in
  M.add_constr m (E.of_terms (List.map (fun x -> (1.0, x)) xs)) M.Ge 1.0;
  M.set_objective m M.Minimize (E.of_terms (List.map (fun x -> (1.0, x)) xs));
  let s = (B.solve_decision_response m).B.solution in
  check Alcotest.string "feasible" "feasible" (S.status_to_string s.S.status);
  check Alcotest.bool "point valid" true (Ec_ilp.Validate.is_feasible m s.S.values)

let test_bnb_node_budget () =
  (* a big unconstrained-ish optimization with a 1-node budget: Unknown
     or a feasible incumbent, never a bogus Optimal claim on a hard model *)
  let m = M.create () in
  let xs = List.init 16 (fun _ -> M.add_var m) in
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

let test_bnb_tie_seed_changes_solution () =
  (* On a model with many symmetric optima, different tie seeds can
     pick different points (same objective). *)
  let build () =
    let m = M.create () in
    let xs = List.init 8 (fun _ -> M.add_var m) in
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
  let x = M.add_var m in
  let y = M.add_var m in
  M.add_constr m (E.of_terms [ (1.0, x); (1.0, y) ]) M.Ge 1.0;
  M.add_constr m (E.of_terms [ (-1.0, x); (1.0, y) ]) M.Ge 0.0;
  let r = H.solve_response ~options:{ H.default_options with stop_at_first_feasible = true } m in
  check Alcotest.string "feasible" "feasible" (S.status_to_string r.H.solution.S.status);
  check Alcotest.bool "hit recorded" true (r.H.stats.H.feasible_hits >= 1)

let test_heuristic_warm_start () =
  let m = M.create () in
  let x = M.add_var m in
  let y = M.add_var m in
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
  let x = M.add_var m in
  M.add_constr m (E.var x) M.Eq 1.0;
  M.set_objective m M.Maximize (E.of_terms ~constant:2.0 [ (3.0, x) ]);
  let sys = R.of_model m in
  check Alcotest.int "eq split into two rows" 2 (R.num_rows sys);
  check Alcotest.bool "flip flag" true sys.R.flip_objective;
  check feq "reported objective" 5.0 (R.report_objective sys (-3.0));
  check Alcotest.bool "point feasible" true (R.point_feasible sys [| 1 |]);
  check Alcotest.bool "point infeasible" false (R.point_feasible sys [| 0 |]);
  check (Alcotest.list Alcotest.int) "violated rows" [ 1 ] (R.violated_rows sys [| 0 |])

(* Each variable's occurrences sit in descending row order, with the
   coefficient of the normalized (Le) row. *)
let test_rows_occurrences () =
  let m = M.create () in
  let x = M.add_var m in
  let y = M.add_var m in
  M.add_constr m (E.of_terms [ (2.0, x); (1.0, y) ]) M.Le 2.0;
  M.add_constr m (E.of_terms [ (3.0, y) ]) M.Ge 1.0;
  M.add_constr m (E.of_terms [ (4.0, x) ]) M.Eq 0.0;
  let sys = R.of_model m in
  let occ v =
    List.init
      (sys.R.occ_start.(v + 1) - sys.R.occ_start.(v))
      (fun i ->
        let p = sys.R.occ_start.(v) + i in
        (sys.R.occ_row.(p), sys.R.occ_coeff.(p)))
  in
  let occs = Alcotest.(list (pair int (float 0.0))) in
  check occs "x" [ (3, -4.0); (2, 4.0); (0, 2.0) ] (occ x);
  check occs "y" [ (1, -3.0); (0, 1.0) ] (occ y)

(* [Rows.of_model] against a list-based reference built from the
   generator's own rows: [Ge] negated, [Eq] split into <= then >=,
   constants folded, each row's origin kept, and each variable's
   occurrences listed by descending row. *)
type raw_row = {
  terms : (float * int) list;
  constant : float;
  relation : M.relation;
  rhs : float;
}

let raw_rows_gen =
  QCheck.Gen.(
    let* nvars = int_range 1 6 in
    let coeff = oneofl [ 0.0; 1.0; -1.0; 2.0; -0.5; 3.0 ] in
    let row =
      let* terms = list_size (int_range 0 7) (pair coeff (int_range 0 (nvars - 1))) in
      let* constant = oneofl [ 0.0; 1.0; -2.5 ] in
      let* relation = oneofl [ M.Le; M.Ge; M.Eq ] in
      let* rhs = oneofl [ 0.0; 1.0; -1.0; 2.0 ] in
      return { terms; constant; relation; rhs }
    in
    let* rows = list_size (int_range 0 10) row in
    let* obj = list_size (int_range 0 6) (pair coeff (int_range 0 (nvars - 1))) in
    let* obj_constant = oneofl [ 0.0; 4.0 ] in
    let* maximize = bool in
    return (nvars, rows, (obj, obj_constant, maximize)))

let reference_rows rows =
  List.concat
    (List.mapi
       (fun i r ->
         let terms = E.terms (E.of_terms r.terms) in
         let neg = List.map (fun (c, x) -> (-.c, x)) terms in
         let rhs = r.rhs -. r.constant in
         match r.relation with
         | M.Le -> [ (terms, rhs, i) ]
         | M.Ge -> [ (neg, -.rhs, i) ]
         | M.Eq -> [ (terms, rhs, i); (neg, -.rhs, i) ])
       rows)

let prop_rows_match_reference =
  QCheck.Test.make ~name:"Rows.of_model = list reference" ~count:500
    (QCheck.make raw_rows_gen)
    (fun (nvars, rows, (obj, obj_constant, maximize)) ->
      let m = M.create () in
      for _ = 1 to nvars do
        ignore (M.add_var m)
      done;
      List.iter (fun r -> M.add_constr_terms m ~constant:r.constant r.terms r.relation r.rhs) rows;
      M.set_objective m (if maximize then M.Maximize else M.Minimize)
        (E.of_terms ~constant:obj_constant obj);
      let sys = R.of_model m in
      let expected = reference_rows rows in
      let got =
        List.init (R.num_rows sys) (fun r ->
            ( List.init
                (sys.R.row_start.(r + 1) - sys.R.row_start.(r))
                (fun k ->
                  let p = sys.R.row_start.(r) + k in
                  (sys.R.row_coeff.(p), sys.R.row_var.(p))),
              sys.R.ub.(r),
              sys.R.origin.(r) ))
      in
      let occ v =
        List.init
          (sys.R.occ_start.(v + 1) - sys.R.occ_start.(v))
          (fun k ->
            let p = sys.R.occ_start.(v) + k in
            (sys.R.occ_row.(p), sys.R.occ_coeff.(p)))
      in
      let expected_occ v =
        List.rev
          (List.concat
             (List.mapi
                (fun r (terms, _, _) ->
                  List.filter_map (fun (c, x) -> if x = v then Some (r, c) else None) terms)
                expected))
      in
      let sign = if maximize then -1.0 else 1.0 in
      let obj_terms = E.terms (E.of_terms obj) in
      got = expected
      && List.for_all (fun v -> occ v = expected_occ v) (List.init nvars Fun.id)
      && Array.to_list sys.R.obj
         = List.init nvars (fun v ->
               match List.assoc_opt v (List.map (fun (c, x) -> (x, c)) obj_terms) with
               | Some c -> 0.0 +. (sign *. c)
               | None -> 0.0)
      && sys.R.obj_const = sign *. obj_constant
      && sys.R.flip_objective = maximize)

(* ---- B&B work, pinned ---- *)

(* Four paper instances at scale 0.3, each with and without the
   enabling rows (paper §5). *)
let pinned_models =
  lazy
    (List.concat_map
       (fun name ->
         let f = (Ec_instances.Registry.(build (scale 0.3 (find name)))).formula in
         let enabled = Ec_core.Encode.of_formula f in
         ignore (Ec_core.Enabling.add Ec_core.Enabling.Constraints enabled);
         [ (name ^ " enabled", Ec_core.Encode.model enabled);
           (name ^ " plain", Ec_core.Encode.model (Ec_core.Encode.of_formula f)) ])
       [ "par8-1-c"; "ii8a1"; "jnh1"; "ii8b2" ])

(* A solve's work counters and a digest of its point. *)
let work_line (r : B.response) =
  let s = r.B.stats in
  let point =
    String.init (Array.length r.B.solution.S.values) (fun i ->
        if r.B.solution.S.values.(i) > 0.5 then '1' else '0')
  in
  Printf.sprintf "nodes=%d conflicts=%d fixes=%d %s" s.B.nodes s.B.conflicts
    s.B.propagated_fixes
    (Digest.to_hex (Digest.string point))

(* Recorded with a B&B that recounted the active rows from scratch at
   every node; the incremental counts must branch, propagate and land
   on the same points.  Optimization mode under a 3 000-node cap.  The
   first three configs are the matrix's [bnb] entries; the fourth
   reshuffles branching ties from a seed, as the Table 3 baseline
   does. *)
let pinned_work =
  [ ( "bnb",
      [ "par8-1-c enabled: nodes=1111 conflicts=18 fixes=8203 710c8f14e31485817fc9d50e8dba7124";
        "par8-1-c plain: nodes=355 conflicts=16 fixes=935 31c485e3de1204716800e13d0c9dc524";
        "ii8a1 enabled: nodes=433 conflicts=6 fixes=6368 0baf977564e3bb3be7ac2ce74fc6ccf7";
        "ii8a1 plain: nodes=241 conflicts=0 fixes=576 65ead5ed2b56a28c56f92482b45b7cc0";
        "jnh1 enabled: nodes=3001 conflicts=196 fixes=161369 696b9bdf940440d6ecbb722fe06692ac";
        "jnh1 plain: nodes=3001 conflicts=36 fixes=6872 0dee8c335ec0d0d4a7cd005a9fc73130";
        "ii8b2 enabled: nodes=3001 conflicts=0 fixes=64150 5adfb767e41a3d6b53b2c1ac1ff1fec4";
        "ii8b2 plain: nodes=3001 conflicts=0 fixes=4052 f5b5dcf87cee76c2f311f0391bd73efc" ] );
    ( "bnb:greedy_completion=false",
      [ "par8-1-c enabled: nodes=2595 conflicts=18 fixes=8203 6281da782ead72ea99bd130a6729da54";
        "par8-1-c plain: nodes=401 conflicts=16 fixes=935 31c485e3de1204716800e13d0c9dc524";
        "ii8a1 enabled: nodes=803 conflicts=6 fixes=6368 aa51804a5c70434c64d8702d4b62fd38";
        "ii8a1 plain: nodes=257 conflicts=0 fixes=576 65ead5ed2b56a28c56f92482b45b7cc0";
        "jnh1 enabled: nodes=3001 conflicts=0 fixes=1805 5890ae21f97c4fac4be7585990e47db7";
        "jnh1 plain: nodes=3001 conflicts=35 fixes=6745 0dee8c335ec0d0d4a7cd005a9fc73130";
        "ii8b2 enabled: nodes=3001 conflicts=0 fixes=3720 b172efdded76d26f56af162879baf29c";
        "ii8b2 plain: nodes=3001 conflicts=0 fixes=3925 f5b5dcf87cee76c2f311f0391bd73efc" ] );
    ( "bnb:branching=first-unfixed",
      [ "par8-1-c enabled: nodes=3001 conflicts=1 fixes=14898 b2e17db70dfa6065cfa79b9826452c90";
        "par8-1-c plain: nodes=3001 conflicts=0 fixes=2003 4b3c7bf8a6f837860e897a64db486dae";
        "ii8a1 enabled: nodes=2354 conflicts=1 fixes=33738 8c8328a2c26cbc1f2479d92c0bf1bc7d";
        "ii8a1 plain: nodes=2141 conflicts=0 fixes=3535 d6cbe9b30705ca1c67cef345947e0f90";
        "jnh1 enabled: nodes=3001 conflicts=37 fixes=37684 5275f69d27caf418bf8179d327a1a314";
        "jnh1 plain: nodes=3001 conflicts=37 fixes=6972 76ee85202357dfcb956b73cd1325193a";
        "ii8b2 enabled: nodes=3001 conflicts=0 fixes=18805 2fe06ccd6e853ae59438ea37fef9277a";
        "ii8b2 plain: nodes=3001 conflicts=0 fixes=1292 618a9a56a2677983808356877e154c5d" ] );
    ( "bnb:tie_seed=7",
      [ "par8-1-c enabled: nodes=1119 conflicts=18 fixes=8301 92d1ee8b4a1d67408689ab435e14ffef";
        "par8-1-c plain: nodes=321 conflicts=14 fixes=945 31c485e3de1204716800e13d0c9dc524";
        "ii8a1 enabled: nodes=443 conflicts=6 fixes=6451 1aa85c1e3d6b75f98f97f5571e9e3dca";
        "ii8a1 plain: nodes=245 conflicts=0 fixes=602 0700aa6ea889a3b8cf558973f61b611c";
        "jnh1 enabled: nodes=3001 conflicts=198 fixes=161518 4ea77257c009fa0976f87ebab1f21fd3";
        "jnh1 plain: nodes=3001 conflicts=56 fixes=6999 5be3959947fa391b53b6f5dd3449136c";
        "ii8b2 enabled: nodes=3001 conflicts=0 fixes=62983 4f29f69b9037529fd355ecc1eee9048f";
        "ii8b2 plain: nodes=3001 conflicts=0 fixes=4374 62d64b331d7a2db9b3b978fb58a857b8" ] ) ]

let test_bnb_work_pinned (config, expected) () =
  let options =
    match Ec_core.Engine_config.parse config with
    | Ok (Ec_core.Engine_config.Bnb o) -> o
    | _ -> Alcotest.fail config
  in
  let options = { options with B.budget = Ec_util.Budget.create ~nodes:3000 () } in
  let got =
    List.map
      (fun (name, m) -> name ^ ": " ^ work_line (B.solve_response ~options m))
      (Lazy.force pinned_models)
  in
  check (Alcotest.list Alcotest.string) config expected got

let test_bnb_decision_work_pinned () =
  let m = List.assoc "par8-1-c enabled" (Lazy.force pinned_models) in
  check Alcotest.string "default config, decision mode"
    "nodes=44 conflicts=0 fixes=158 10820b34ac5f6344eb4590400b22be37"
    (work_line (B.solve_decision_response m))

let tests =
  [ ( "ilpsolver.bnb",
      [ Alcotest.test_case "knapsack" `Quick test_bnb_knapsack;
        Alcotest.test_case "infeasible" `Quick test_bnb_infeasible;
        Alcotest.test_case "decision mode" `Quick test_bnb_decision_stops_early;
        Alcotest.test_case "node budget" `Quick test_bnb_node_budget;
        Alcotest.test_case "tie seed" `Quick test_bnb_tie_seed_changes_solution;
        qtest prop_bnb_matches_brute_force;
        qtest prop_bnb_greedy_off_agrees;
        qtest prop_bnb_branching_agrees ] );
    ( "ilpsolver.bnb work",
      List.map
        (fun ((config, _) as pin) ->
          Alcotest.test_case config `Quick (test_bnb_work_pinned pin))
        pinned_work
      @ [ Alcotest.test_case "decision mode" `Quick test_bnb_decision_work_pinned ] );
    ( "ilpsolver.heuristic",
      [ Alcotest.test_case "simple sat" `Quick test_heuristic_simple_sat;
        Alcotest.test_case "warm start" `Quick test_heuristic_warm_start;
        qtest prop_heuristic_sound ] );
    ( "ilpsolver.rows",
      [ Alcotest.test_case "normalization" `Quick test_rows_normalization;
        Alcotest.test_case "occurrences" `Quick test_rows_occurrences;
        qtest prop_rows_match_reference ] ) ]
