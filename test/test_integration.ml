(* Whole-flow integration fuzzing: random instances pushed through
   enable → change → fast/preserving/full re-solve, with cross-engine
   agreement and invariant checks at every stage.  These tests bind the
   subsystems together the way the Figure-1 flow does, rather than
   exercising one module at a time. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module F = Ec_cnf.Formula
module C = Ec_cnf.Clause
module A = Ec_cnf.Assignment
module O = Ec_sat.Outcome

(* Planted-style random instances, like the generators but tiny. *)
let instance_gen =
  QCheck.Gen.(
    let* n = int_range 5 14 in
    let* m = int_range (2 * n) (3 * n) in
    let* seed = int_range 0 10_000 in
    return (n, m, seed))

let build (n, m, seed) =
  let rng = Ec_util.Rng.create seed in
  let planted = Ec_instances.Padding.random_planted rng n in
  let clauses =
    List.init m (fun _ ->
        Ec_instances.Padding.anchored_clause rng ~planted ~num_vars:n
          ~width:(min n 3))
  in
  (F.create ~num_vars:n clauses, planted, rng)

let print_inst (n, m, seed) = Printf.sprintf "(n=%d m=%d seed=%d)" n m seed

let arb_instance = QCheck.make ~print:print_inst instance_gen

(* 1. The full Figure-1 happy path holds on every planted instance. *)
let prop_flow_pipeline =
  QCheck.Test.make ~name:"figure-1 pipeline end to end" ~count:60 arb_instance
    (fun spec ->
      let f, _planted, rng = build spec in
      match Ec_core.Flow.solve_initial ~enable:Ec_core.Enabling.Constraints
              ~solver:Ec_core.Backend.ilp_exact f with
      | None -> false (* planted instances are enabling-feasible *)
      | Some init ->
        Ec_core.Enabling.verify f init.Ec_core.Flow.assignment
        &&
        let script = Ec_cnf.Change.fast_ec_script rng f ~eliminate:1 ~add:3 ~clause_width:3 in
        (match
           (Ec_core.Flow.apply_change_response ~strategy:Ec_core.Flow.Fast init script).result
         with
        | Some u ->
          A.satisfies u.Ec_core.Flow.new_assignment u.Ec_core.Flow.new_formula
        | None ->
          (* random additions may genuinely kill satisfiability *)
          (Ec_core.Backend.solve_response Ec_core.Backend.cdcl
            (Ec_cnf.Change.apply_script f script)).outcome
          = O.Unsat))

(* 2. Fast EC and full re-solve agree on feasibility of the change. *)
let prop_fast_vs_full_feasibility =
  QCheck.Test.make ~name:"fast EC finds a solution whenever one exists (with fallback)"
    ~count:60 arb_instance (fun spec ->
      let f, _, rng = build spec in
      match (Ec_core.Backend.solve_response Ec_core.Backend.cdcl f).outcome with
      | O.Unsat | O.Unknown _ -> QCheck.assume_fail ()
      | O.Sat a ->
        let f' =
          Ec_cnf.Change.apply_script f
            (Ec_cnf.Change.fast_ec_script rng f ~eliminate:2 ~add:4 ~clause_width:2)
        in
        let p = A.extend a (F.num_vars f') in
        let cone = Ec_core.Fast_ec.resolve ~backend:Ec_core.Backend.cdcl f' p in
        let full = (Ec_core.Backend.solve_response Ec_core.Backend.cdcl f').outcome in
        (match (cone.Ec_core.Fast_ec.solution, full) with
        | Some m, O.Sat _ -> A.satisfies m f'
        | None, O.Unsat -> true
        | None, O.Sat _ -> true (* cone incompleteness: legal, harness falls back *)
        | Some _, O.Unsat -> false (* impossible: a model refutes unsat *)
        | _, O.Unknown _ -> false))

(* 3. Preserving beats (or ties) any other model, engines agree, and
   the preserved count is achievable. *)
let prop_preserving_dominates =
  QCheck.Test.make ~name:"preserving EC dominates arbitrary re-solves" ~count:50
    arb_instance (fun spec ->
      let f, _, rng = build spec in
      match (Ec_core.Backend.solve_response Ec_core.Backend.cdcl f).outcome with
      | O.Unsat | O.Unknown _ -> QCheck.assume_fail ()
      | O.Sat reference ->
        let satisfiable g = O.is_sat (Ec_sat.Cdcl.solve_response g).outcome in
        let script =
          Ec_cnf.Change.preserving_ec_script ~satisfiable rng f ~reference ~add_vars:1
            ~del_vars:1 ~add_clauses:2 ~del_clauses:1 ~clause_width:2
        in
        let f' = Ec_cnf.Change.apply_script f script in
        let reference = A.extend reference (F.num_vars f') in
        let r_ilp = Ec_core.Preserving.resolve f' ~reference in
        let r_sat =
          Ec_core.Preserving.resolve
            ~engine:(Ec_core.Preserving.Sat_cardinality Ec_sat.Cdcl.default_options) f'
            ~reference
        in
        (match (r_ilp.Ec_core.Preserving.solution, r_sat.Ec_core.Preserving.solution) with
        | Some a, Some b ->
          A.satisfies a f' && A.satisfies b f'
          && r_ilp.Ec_core.Preserving.preserved = r_sat.Ec_core.Preserving.preserved
          &&
          (* any other model preserves no more *)
          (match (Ec_core.Backend.solve_response Ec_core.Backend.cdcl f').outcome with
          | O.Sat other ->
            A.preserved_count ~old_assignment:reference other
            <= r_ilp.Ec_core.Preserving.preserved
          | O.Unsat | O.Unknown _ -> false)
        | None, None -> true
        | _, _ -> false))

(* 4. Preprocessing composes with the whole stack: preprocess + cdcl,
   plain cdcl, dpll and ILP all agree. *)
let prop_four_way_agreement =
  QCheck.Test.make ~name:"preprocess/cdcl/dpll/ilp four-way agreement" ~count:60
    arb_instance (fun spec ->
      let f, _, rng = build spec in
      (* randomly break the planted structure so unsat cases appear *)
      let f =
        if Ec_util.Rng.bool rng then
          F.add_clauses f
            [ C.make [ 1 ]; C.make [ -1; 2 ]; C.make [ -2; -1 ] ]
        else f
      in
      let verdicts =
        [ O.is_sat (Ec_sat.Preprocess.solve_with_preprocessing f);
          O.is_sat (Ec_sat.Cdcl.solve_response f).outcome;
          O.is_sat (Dpll.solve f);
          (match (Ec_core.Backend.solve_response Ec_core.Backend.ilp_exact f).outcome with
          | O.Sat _ -> true
          | O.Unsat -> false
          | O.Unknown _ -> not (O.is_sat (Ec_sat.Cdcl.solve_response f).outcome)) ]
      in
      match verdicts with
      | v :: rest -> List.for_all (fun x -> x = v) rest
      | [] -> false)

(* 5. Incremental sessions track the flow's change stream. *)
let prop_incremental_tracks_flow =
  QCheck.Test.make ~name:"incremental session tracks a change stream" ~count:40
    arb_instance (fun spec ->
      let f, planted, rng = build spec in
      let session = Ec_sat.Incremental.create f in
      let f_ref = ref f in
      let ok = ref true in
      for _ = 1 to 6 do
        let c =
          Ec_instances.Padding.anchored_clause ~agree:1 rng ~planted
            ~num_vars:(F.num_vars f) ~width:2
        in
        f_ref := F.add_clause !f_ref c;
        Ec_sat.Incremental.add_clause session c;
        match (Ec_sat.Incremental.solve session, (Ec_sat.Cdcl.solve_response !f_ref).outcome) with
        | O.Sat a, O.Sat _ -> if not (A.satisfies a !f_ref) then ok := false
        | O.Unsat, O.Unsat -> ()
        | _, _ -> ok := false
      done;
      !ok)

(* 6. DIMACS round-trips compose with the solver stack. *)
let prop_dimacs_solver_roundtrip =
  QCheck.Test.make ~name:"dimacs round-trip preserves solver verdicts" ~count:60
    arb_instance (fun spec ->
      let f, _, _ = build spec in
      let f2 = Ec_cnf.Dimacs.parse_string (Ec_cnf.Dimacs.to_string f) in
      O.is_sat (Ec_sat.Cdcl.solve_response f).outcome
      = O.is_sat (Ec_sat.Cdcl.solve_response f2).outcome)

let test_cli_roundtrip_files () =
  (* gen -> file -> parse -> solve, exercising the same path as ecsat *)
  let spec = Ec_instances.Registry.scale 0.2 (Ec_instances.Registry.find "ii8a1") in
  let inst = Ec_instances.Registry.build spec in
  let path = Filename.temp_file "ecsat_test" ".cnf" in
  Ec_cnf.Dimacs.write_file ~comment:"integration test" path inst.formula;
  let parsed = Ec_cnf.Dimacs.parse_file path in
  Sys.remove path;
  check Alcotest.bool "file round-trip" true (F.equal inst.formula parsed);
  match (Ec_core.Backend.solve_response Ec_core.Backend.cdcl parsed).outcome with
  | O.Sat a -> check Alcotest.bool "solves" true (A.satisfies a parsed)
  | _ -> Alcotest.fail "satisfiable"

let tests =
  [ ( "integration",
      [ Alcotest.test_case "cli file round-trip" `Quick test_cli_roundtrip_files;
        qtest prop_flow_pipeline;
        qtest prop_fast_vs_full_feasibility;
        qtest prop_preserving_dominates;
        qtest prop_four_way_agreement;
        qtest prop_incremental_tracks_flow;
        qtest prop_dimacs_solver_roundtrip ] ) ]
