(* Figure 1, executed: the generic ILP-based EC flow.

   Walks one jnh-style instance through every path of the paper's flow
   diagram:

     original spec --(solver)--------------> non-EC solution
     original spec --(enabling EC + solver)-> EC solution
     + new features / preservation spec  --> modified instance
     modified instance --(fast EC)---------> updated solution
     modified instance --(preserving EC)---> updated solution

   and prints what each stage did.

   Run with: dune exec examples/flow_demo.exe *)

let stage fmt = Printf.printf ("\n--- " ^^ fmt ^^ " ---\n")

let () =
  let spec =
    Ec_instances.Registry.scale 0.3 (Ec_instances.Registry.find "jnh1")
  in
  let inst = Ec_instances.Registry.build spec in
  let f = inst.formula in
  Printf.printf "Original specification: %s (%d vars, %d clauses)\n"
    spec.name (Ec_cnf.Formula.num_vars f) (Ec_cnf.Formula.num_clauses f);

  stage "Path 1: plain solver -> non-EC solution";
  let non_ec =
    match Ec_core.Flow.solve_initial f with
    | Some init -> init
    | None -> failwith "instance unsatisfiable"
  in
  Printf.printf "solved in %.4fs; flexibility of the solution: %.2f\n"
    non_ec.solve_time_s non_ec.flexibility;

  stage "Path 2: enabling EC -> EC solution";
  let ec =
    match Ec_core.Flow.solve_initial ~enable:Ec_core.Enabling.Constraints
            ~solver:Ec_core.Backend.ilp_exact f with
    | Some init -> init
    | None -> failwith "no enabled solution"
  in
  Printf.printf "solved in %.4fs; flexibility: %.2f (plain solution had %.2f)\n"
    ec.solve_time_s ec.flexibility non_ec.flexibility;

  stage "New features arrive: eliminate 2 variables, add 5 clauses";
  let rng = Ec_util.Rng.create 7 in
  let script = Ec_cnf.Change.fast_ec_script rng f ~eliminate:2 ~add:5 ~clause_width:3 in
  List.iter (fun ch -> Printf.printf "  %s\n" (Ec_cnf.Change.to_string ch)) script;

  stage "Re-solve via fast EC (Figure 2), from each starting solution";
  List.iter
    (fun (label, init) ->
      match
        (Ec_core.Flow.apply_change_response ~strategy:Ec_core.Flow.Fast init script).result
      with
      | Some u ->
        let vars, clauses = Option.value u.sub_instance_size ~default:(0, 0) in
        Printf.printf
          "%-16s cone %3d vars /%4d clauses, %.4fs, preserved %.0f%%\n" label vars
          clauses u.resolve_time_s (100.0 *. u.preserved_fraction)
      | None -> Printf.printf "%-16s failed\n" label)
    [ ("from non-EC:", non_ec); ("from EC-enabled:", ec) ];

  stage "Re-solve via preserving EC";
  (match
     (Ec_core.Flow.apply_change_response
       ~strategy:(Ec_core.Flow.Preserve Ec_core.Preserving.default_engine) ec script).result
   with
  | Some u ->
    Printf.printf "preserving EC kept %.1f%% of the initial solution (%.4fs)\n"
      (100.0 *. u.preserved_fraction) u.resolve_time_s
  | None -> print_endline "preserving EC failed");

  stage "Baseline: full re-solve with no EC goals";
  match (Ec_core.Flow.apply_change_response ~strategy:Ec_core.Flow.Full ec script).result with
  | Some u ->
    Printf.printf "full re-solve preserved %.1f%% by accident (%.4fs)\n"
      (100.0 *. u.preserved_fraction) u.resolve_time_s
  | None -> print_endline "full re-solve failed"
