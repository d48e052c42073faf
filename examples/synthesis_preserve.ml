(* Multi-stage synthesis with preservation (§7's motivation).

   "Often, a single synthesis step is followed by a number of
   consecutive synthesis steps.  Therefore, if we want to avoid
   numerous changes to all steps, we have to preserve as much as
   possible of the initial solution at the higher levels of
   abstraction."

   We model a two-stage tool chain: stage 1 assigns values to the SAT
   variables (the "high-level" decisions); stage 2 performs per-
   variable downstream work whose cost is proportional to the number
   of stage-1 decisions that changed.  A late specification change
   arrives; we compare the downstream rework bill under three policies:

   - plain re-solve (no preservation goal),
   - preserving EC with the maximum-preservation objective,
   - preserving EC with user-pinned variables (a subset that must not
     change, e.g. decisions already taped out).

   Run with: dune exec examples/synthesis_preserve.exe *)

let rework_cost ~old_assignment new_assignment =
  let n =
    min
      (Ec_cnf.Assignment.num_vars old_assignment)
      (Ec_cnf.Assignment.num_vars new_assignment)
  in
  n - Ec_cnf.Assignment.preserved_count ~old_assignment new_assignment

let () =
  let spec = Ec_instances.Registry.scale 0.35 (Ec_instances.Registry.find "par8-1-c") in
  let inst = Ec_instances.Registry.build spec in
  let f = inst.formula in
  Printf.printf "Stage-1 design: %s (%d vars, %d clauses)\n" spec.name
    (Ec_cnf.Formula.num_vars f) (Ec_cnf.Formula.num_clauses f);
  let stage1 =
    match (Ec_core.Backend.solve_response Ec_core.Backend.ilp_exact f).outcome with
    | Ec_sat.Outcome.Sat a -> a
    | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> failwith "unsat base"
  in
  Printf.printf "Stage 1 committed %d decisions; stage 2 consumed them.\n\n"
    (List.length (Ec_cnf.Assignment.assigned_vars stage1));

  (* The late change: five new clauses the old solution violates. *)
  let rng = Ec_util.Rng.create 31337 in
  let rec tightening_clauses acc k guard =
    if k = 0 || guard = 0 then acc
    else
      let c =
        Ec_cnf.Change.random_clause rng ~num_vars:(Ec_cnf.Formula.num_vars f) ~width:3
      in
      if Ec_cnf.Assignment.satisfies_clause stage1 c then
        tightening_clauses acc k (guard - 1)
      else tightening_clauses (c :: acc) (k - 1) (guard - 1)
  in
  let new_clauses = tightening_clauses [] 3 100000 in
  let f' = Ec_cnf.Formula.add_clauses f new_clauses in
  Printf.printf "Late specification change: %d new clauses; old solution still valid: %b\n\n"
    (List.length new_clauses)
    (Ec_cnf.Assignment.satisfies stage1 f');

  let report label solution optimal =
    match solution with
    | None -> Printf.printf "%-28s no solution\n" label
    | Some a ->
      assert (Ec_cnf.Assignment.satisfies a f');
      Printf.printf "%-28s rework on %3d of %d stage-1 decisions%s\n" label
        (rework_cost ~old_assignment:stage1 a)
        (Ec_cnf.Assignment.num_vars stage1)
        (if optimal then " (provably minimal)" else "")
  in

  (* Policy 1: plain re-solve. *)
  (match (Ec_core.Backend.solve_response Ec_core.Backend.ilp_exact f').outcome with
  | Ec_sat.Outcome.Sat a -> report "plain re-solve:" (Some a) false
  | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> report "plain re-solve:" None false);

  (* Policy 2: preserving EC, both engines agree on the optimum. *)
  let r_ilp = Ec_core.Preserving.resolve f' ~reference:stage1 in
  report "preserving EC (ILP):" r_ilp.solution r_ilp.optimal;
  let r_sat =
    Ec_core.Preserving.resolve
      ~engine:(Ec_core.Preserving.Sat_cardinality Ec_sat.Cdcl.default_options) f'
      ~reference:stage1
  in
  report "preserving EC (CDCL+card):" r_sat.solution r_sat.optimal;
  assert (r_ilp.preserved = r_sat.preserved);

  (* Policy 3: pin the first quarter of the variables (already taped
     out), preserve the rest as well as possible. *)
  let pins =
    List.filteri (fun i _ -> i < Ec_cnf.Assignment.num_vars stage1 / 4)
      (Ec_cnf.Assignment.assigned_vars stage1)
  in
  let r_pin = Ec_core.Preserving.resolve ~pins f' ~reference:stage1 in
  (match r_pin.solution with
  | Some a ->
    List.iter
      (fun v ->
        assert (Ec_cnf.Assignment.value a v = Ec_cnf.Assignment.value stage1 v))
      pins;
    Printf.printf "%-28s rework on %3d decisions, %d pinned variables untouched\n"
      "preserving EC (pinned):"
      (rework_cost ~old_assignment:stage1 a)
      (List.length pins)
  | None ->
    Printf.printf "%-28s pins make the change infeasible — redesign needed\n"
      "preserving EC (pinned):")
