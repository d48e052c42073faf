(* Quickstart: the paper's §1 walk-through, end to end.

   Build a small SAT instance, solve it through the set-cover ILP
   encoding, compare an ordinary solution with an EC-enabled one under
   variable elimination, and repair a broken solution with fast EC and
   preserving EC.

   Run with: dune exec examples/quickstart.exe *)

let section title = Printf.printf "\n=== %s ===\n" title

(* F = (v1 + ~v3 + ~v5)(v2 + ~v3 + ~v5)(v2 + v4 + v5)(~v3 + ~v4) —
   the instance of §1. *)
let f =
  Ec_cnf.Formula.of_lists ~num_vars:5
    [ [ 1; -3; -5 ]; [ 2; -3; -5 ]; [ 2; 4; 5 ]; [ -3; -4 ] ]

let () =
  section "The instance";
  Printf.printf "F = %s\n" (Ec_cnf.Formula.to_string f);

  section "Two satisfying solutions (paper's S and E)";
  let s = Ec_cnf.Assignment.of_list 5 [ (1, false); (2, true); (3, true); (4, false); (5, false) ] in
  let e = Ec_cnf.Assignment.of_list 5 [ (1, true); (2, true); (3, false); (4, true); (5, false) ] in
  Printf.printf "S = %s  satisfies: %b\n" (Ec_cnf.Assignment.to_string s)
    (Ec_cnf.Assignment.satisfies s f);
  Printf.printf "E = %s  satisfies: %b\n" (Ec_cnf.Assignment.to_string e)
    (Ec_cnf.Assignment.satisfies e f);

  section "Which solution tolerates engineering change?";
  List.iter
    (fun (name, a) ->
      let tolerated =
        List.filter (fun v -> Ec_cnf.Ksat.tolerates_elimination f a v) [ 1; 2; 3; 4; 5 ]
      in
      Printf.printf "%s survives eliminating %d of 5 variables (enabled: %b)\n" name
        (List.length tolerated) (Ec_cnf.Ksat.enabled f a))
    [ ("S", s); ("E", e) ]

let () =
  section "Solving through the ILP encoding (set cover, eq. 4-6)";
  let enc = Ec_core.Encode.of_formula f in
  Printf.printf "%s" (Ec_ilp.Model.to_string (Ec_core.Encode.model enc));
  let r = Ec_ilpsolver.Bnb.solve_response (Ec_core.Encode.model enc) in
  let solution = r.Ec_ilpsolver.Bnb.solution and stats = r.Ec_ilpsolver.Bnb.stats in
  (match Ec_core.Encode.decode enc solution with
  | Some a ->
    Printf.printf "ILP optimum (%d nodes): %s — %d literals selected, %d don't-cares\n"
      stats.nodes (Ec_cnf.Assignment.to_string a)
      (List.length (Ec_cnf.Assignment.assigned_vars a))
      (Ec_cnf.Assignment.dc_count a)
  | None -> print_endline "unsatisfiable?")

let () =
  section "Enabling EC (hard constraints, k = 2)";
  match Ec_core.Flow.solve_initial ~enable:Ec_core.Enabling.Constraints f with
  | None -> print_endline "no enabled solution exists"
  | Some init ->
    Printf.printf "enabled solution: %s (flexibility %.2f, %.4fs)\n"
      (Ec_cnf.Assignment.to_string init.assignment)
      init.flexibility init.solve_time_s;

    section "Fast EC after eliminating v3 (Figure 2)";
    (match (Ec_core.Flow.apply_change_response ~strategy:Ec_core.Flow.Fast init
             [ Ec_cnf.Change.Eliminate_var 3 ]).result with
    | Some u ->
      let vars, clauses = Option.value u.sub_instance_size ~default:(0, 0) in
      Printf.printf
        "re-solved a cone of %d vars / %d clauses (instead of the full instance)\n"
        vars clauses;
      Printf.printf "new solution: %s (preserved %.0f%% of the old one)\n"
        (Ec_cnf.Assignment.to_string u.new_assignment)
        (100.0 *. u.preserved_fraction)
    | None -> print_endline "fast EC failed");

    section "Preserving EC after adding two clauses (paper §7 example)";
    let f3 =
      Ec_cnf.Formula.of_lists ~num_vars:5
        [ [ 1; 2; 4 ]; [ 1; 4; -5 ]; [ -1; -3; 4 ]; [ 2; 3; 5 ]; [ -2; 4; 5 ]; [ 3; -4; 5 ] ]
    in
    let s3 =
      Ec_cnf.Assignment.of_list 5
        [ (1, true); (2, true); (3, false); (4, false); (5, true) ]
    in
    let f3' =
      Ec_cnf.Formula.add_clauses f3
        [ Ec_cnf.Clause.make [ -2; 3; 4 ]; Ec_cnf.Clause.make [ 1; -2; -5 ] ]
    in
    Printf.printf "old solution satisfies the modified instance: %b\n"
      (Ec_cnf.Assignment.satisfies s3 f3');
    let r = Ec_core.Preserving.resolve f3' ~reference:s3 in
    (match r.solution with
    | Some a ->
      Printf.printf "preserving EC keeps %d of %d assignments (optimal: %b): %s\n"
        r.preserved r.total r.optimal (Ec_cnf.Assignment.to_string a)
    | None -> print_endline "modified instance unsatisfiable")
