(* A stream of engineering changes, absorbed incrementally.

   The intro's motivating scenario: a design is solved once, then
   change requests keep arriving.  Each request either loosens the
   specification (handled for free, with don't-care recovery per §6) or
   tightens it (handled by the Figure-2 fast-EC cone).  We track how
   much work each change needed compared to a from-scratch re-solve.

   Run with: dune exec examples/incremental_repair.exe *)

let () =
  let spec =
    Ec_instances.Registry.scale 0.3 (Ec_instances.Registry.find "ii8a2")
  in
  let inst = Ec_instances.Registry.build spec in
  let rng = Ec_util.Rng.create 2002 in
  Printf.printf "Base design: %s (%d vars, %d clauses)\n" spec.name
    (Ec_cnf.Formula.num_vars inst.formula)
    (Ec_cnf.Formula.num_clauses inst.formula);
  let init =
    match
      Ec_core.Flow.solve_initial ~enable:Ec_core.Enabling.Constraints
        ~solver:Ec_core.Backend.ilp_exact inst.formula
    with
    | Some i -> i
    | None -> failwith "unsatisfiable base design"
  in
  Printf.printf "Initial EC-enabled solve: %.4fs, flexibility %.2f\n\n"
    init.solve_time_s init.flexibility;
  Printf.printf "%-4s %-28s %-12s %10s %10s %9s\n" "#" "change" "kind" "cone(v/c)"
    "fast (s)" "full (s)";

  let solver =
    (* Caps keep the from-scratch reference solves bounded even when a
       change lands in a hard region. *)
    Ec_core.Backend.Ilp_exact
      { Ec_ilpsolver.Bnb.default_options with budget = Ec_util.Budget.of_time 5.0 }
  in
  let formula = ref init.formula in
  let solution = ref init.assignment in
  let total_fast = ref 0.0 and total_full = ref 0.0 in
  for step = 1 to 12 do
    (* Alternate tightening and loosening changes. *)
    let change =
      if step mod 3 = 0 && Ec_cnf.Formula.num_clauses !formula > 1 then
        Ec_cnf.Change.Remove_clause
          (Ec_util.Rng.int rng (Ec_cnf.Formula.num_clauses !formula))
      else if step mod 4 = 0 then
        Ec_cnf.Change.Add_var
      else
        (* Anchor new clauses on the generator's planted model so the
           stream of changes never makes the design unsatisfiable
           (instance-level satisfiability is the generator's promise;
           the *current* solution may still be broken, which is the
           interesting case for fast EC). *)
        Ec_cnf.Change.Add_clause
          (Ec_cnf.Change.random_clause_satisfied_by rng
             (Ec_cnf.Assignment.extend inst.planted (Ec_cnf.Formula.num_vars !formula))
             ~num_vars:(Ec_cnf.Formula.num_vars !formula) ~width:3)
    in
    let f' = Ec_cnf.Change.apply !formula change in
    let p = Ec_cnf.Assignment.extend !solution (Ec_cnf.Formula.num_vars f') in
    let r, fast_t =
      Ec_util.Stopwatch.time (fun () -> Ec_core.Fast_ec.resolve ~backend:solver f' p)
    in
    (* Reference cost: solve f' from scratch. *)
    let _, full_t =
      Ec_util.Stopwatch.time (fun () -> (Ec_core.Backend.solve_response solver f').outcome)
    in
    (match r.solution with
    | Some a ->
      let a = Ec_core.Fast_ec.refresh f' a in
      Printf.printf "%-4d %-28s %-12s %4d/%-5d %10.4f %10.4f\n" step
        (Ec_cnf.Change.to_string change)
        (if Ec_cnf.Change.is_tightening change then "tightening" else "loosening")
        r.sub_vars_count r.sub_clauses_count fast_t full_t;
      formula := f';
      solution := a;
      total_fast := !total_fast +. fast_t;
      total_full := !total_full +. full_t
    | None ->
      Printf.printf "%-4d %-28s made the design unsatisfiable; change rejected\n" step
        (Ec_cnf.Change.to_string change));
    assert (Ec_cnf.Assignment.satisfies !solution !formula)
  done;
  Printf.printf
    "\nTotal incremental repair: %.4fs vs %.4fs from-scratch (%.1fx less work)\n"
    !total_fast !total_full (!total_full /. !total_fast)
