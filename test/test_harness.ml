(* Tests for Ec_harness: protocol, the tables' re-solve backend and the
   three table runners at miniature scale (structure and invariants,
   not timing). *)

let check = Alcotest.check

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

module R = Ec_instances.Registry
module P = Ec_harness.Protocol

let tiny_config =
  { P.default_config with
    P.scale = 0.1;
    trials = 2;
    budget = Ec_util.Budget.create ~time_s:10.0 ~nodes:5_000_000 ();
    include_large = false }

let test_config_presets () =
  check (Alcotest.float 1e-9) "paper scale" 1.0 P.paper_config.P.scale;
  check Alcotest.bool "paper uncapped" true
    (Ec_util.Budget.is_unlimited P.paper_config.P.budget);
  check Alcotest.bool "default capped" true
    (not (Ec_util.Budget.is_unlimited P.default_config.P.budget))

let test_instances_list () =
  let insts = P.instances tiny_config in
  check Alcotest.int "small tier only" 8 (List.length insts);
  List.iter
    (fun (i : R.instance) ->
      check Alcotest.bool "scaled down" true (i.spec.num_vars <= 80))
    insts;
  let all = P.instances { tiny_config with P.include_large = true } in
  check Alcotest.int "with large tier" 13 (List.length all)

let test_initial_solve_enabled () =
  let inst = R.build (R.scale 0.1 (R.find "jnh201")) in
  match P.initial_solve tiny_config inst with
  | None -> Alcotest.fail "initial solve should succeed"
  | Some { P.assignment = a; time_s = t; certified } ->
    check Alcotest.bool "satisfies" true (Ec_cnf.Assignment.satisfies a inst.formula);
    check Alcotest.bool "enabled (Figure-1 EC solution)" true
      (Ec_core.Enabling.verify inst.formula a);
    check Alcotest.bool "certified" true certified;
    check Alcotest.bool "time recorded" true (t >= 0.0)

let test_initial_solve_plain () =
  let inst = R.build (R.scale 0.1 (R.find "jnh201")) in
  let cfg = { tiny_config with P.enabled_initial = false } in
  match P.initial_solve cfg inst with
  | None -> Alcotest.fail "plain solve should succeed"
  | Some { P.assignment = a; _ } ->
    check Alcotest.bool "satisfies" true (Ec_cnf.Assignment.satisfies a inst.formula)

(* Table 2's re-solve engine: branch & bound in decision mode under the
   config's safety budget. *)
let table2_backend = Ec_core.Backend.Ilp_exact (P.bnb_options tiny_config)

let test_ilp_exact_resolve () =
  let f = Ec_cnf.Formula.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let r = Ec_core.Backend.solve_response table2_backend f in
  check Alcotest.string "engine" "ilp-bnb" r.Ec_core.Backend.engine;
  (match r.Ec_core.Backend.outcome with
  | Ec_sat.Outcome.Sat a -> check Alcotest.bool "valid" true (Ec_cnf.Assignment.satisfies a f)
  | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> Alcotest.fail "satisfiable");
  let unsat = Ec_cnf.Formula.of_lists ~num_vars:1 [ [ 1 ]; [ -1 ] ] in
  check Alcotest.string "unsat detected" "unsat"
    (Ec_sat.Outcome.to_string
       (Ec_core.Backend.solve_response table2_backend unsat).outcome)

let test_fast_resolver () =
  let inst = R.build (R.scale 0.1 (R.find "ii8a1")) in
  match P.initial_solve tiny_config inst with
  | None -> Alcotest.fail "initial"
  | Some { P.assignment = a0; _ } ->
    let rng = Ec_util.Rng.create 17 in
    let script =
      Ec_cnf.Change.fast_ec_script rng inst.formula ~eliminate:2 ~add:5 ~clause_width:3
    in
    let f' = Ec_cnf.Change.apply_script inst.formula script in
    let p = Ec_cnf.Assignment.extend a0 (Ec_cnf.Formula.num_vars f') in
    let r = Ec_core.Fast_ec.resolve ~backend:table2_backend f' p in
    (match r.Ec_core.Fast_ec.solution with
    | Some a -> check Alcotest.bool "resolved satisfies" true (Ec_cnf.Assignment.satisfies a f')
    | None -> () (* cone unsatisfiable: Table 2 falls back to a full re-solve *));
    check Alcotest.bool "cone size sane" true
      (r.Ec_core.Fast_ec.sub_vars_count <= Ec_cnf.Formula.num_vars f')

let test_table1_structure () =
  let result = Ec_harness.Table1.run tiny_config in
  check Alcotest.int "8 exact rows" 8 (List.length result.Ec_harness.Table1.exact_rows);
  check Alcotest.int "no heuristic rows" 0
    (List.length result.Ec_harness.Table1.heuristic_rows);
  List.iter
    (fun (r : Ec_harness.Table1.row) ->
      check Alcotest.bool (r.name ^ " orig > 0") true (r.orig_s > 0.0);
      check Alcotest.bool (r.name ^ " sc verified") true r.sc_verified;
      check Alcotest.bool (r.name ^ " ratios positive") true
        (r.sc_norm > 0.0 && r.of_norm > 0.0))
    result.Ec_harness.Table1.exact_rows;
  let rendered = Ec_harness.Table1.render result in
  check Alcotest.bool "render mentions average" true
    (contains rendered "average")

let test_table2_structure () =
  let result = Ec_harness.Table2.run tiny_config in
  List.iter
    (fun (r : Ec_harness.Table2.row) ->
      check Alcotest.bool (r.name ^ " cone smaller than instance") true
        (r.avg_sub_vars <= float_of_int r.num_vars);
      check Alcotest.int (r.name ^ " trials") tiny_config.P.trials r.trials)
    result.Ec_harness.Table2.exact_rows;
  check Alcotest.bool "rendered" true
    (String.length (Ec_harness.Table2.render result) > 100)

let test_table3_structure () =
  let result = Ec_harness.Table3.run tiny_config in
  List.iter
    (fun (r : Ec_harness.Table3.row) ->
      check Alcotest.bool (r.name ^ " percentages in range") true
        (r.pct_original >= 0.0 && r.pct_original <= 100.0
        && r.pct_with_ec >= 0.0 && r.pct_with_ec <= 100.0);
      check Alcotest.bool (r.name ^ " EC at least as good") true
        (r.pct_with_ec >= r.pct_original -. 1e-9))
    result.Ec_harness.Table3.rows;
  check Alcotest.bool "rendered" true
    (String.length (Ec_harness.Table3.render result) > 100)

(* The change scripts come from per-instance streams, so every field
   but the wall-time ones is the same whatever the batch parallelism. *)
let test_tables_independent_of_jobs () =
  let at jobs = { tiny_config with P.jobs } in
  let t2 (r : Ec_harness.Table2.result) =
    List.map
      (fun (row : Ec_harness.Table2.row) ->
        { row with orig_s = 0.0; avg_new_s = 0.0; new_norm = 0.0 })
      (r.exact_rows @ r.heuristic_rows)
  in
  check Alcotest.bool "table 2 rows equal at jobs 1 and 2" true
    (t2 (Ec_harness.Table2.run (at 1)) = t2 (Ec_harness.Table2.run (at 2)));
  check Alcotest.bool "table 3 rows equal at jobs 1 and 2" true
    (Ec_harness.Table3.run (at 1) = Ec_harness.Table3.run (at 2))

let tests =
  [ ( "harness.protocol",
      [ Alcotest.test_case "config presets" `Quick test_config_presets;
        Alcotest.test_case "instances list" `Quick test_instances_list;
        Alcotest.test_case "initial solve (enabled)" `Quick test_initial_solve_enabled;
        Alcotest.test_case "initial solve (plain)" `Quick test_initial_solve_plain;
        Alcotest.test_case "exact resolve" `Quick test_ilp_exact_resolve;
        Alcotest.test_case "fast resolver" `Quick test_fast_resolver ] );
    ( "harness.tables",
      [ Alcotest.test_case "table 1 structure" `Slow test_table1_structure;
        Alcotest.test_case "table 2 structure" `Slow test_table2_structure;
        Alcotest.test_case "table 3 structure" `Slow test_table3_structure;
        Alcotest.test_case "tables independent of jobs" `Slow
          test_tables_independent_of_jobs ] ) ]
