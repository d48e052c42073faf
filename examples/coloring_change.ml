(* The generic EC methodology on its second application: graph
   coloring (paper §8's closing remark; the constraint-manipulation
   setting of Kirovski–Potkonjak that §2 compares against).

   A register-allocation-flavoured story: nodes are live ranges,
   colors are registers, edges are interference.  The compiler's
   front-end keeps adding interference edges; we absorb each with
   fast EC and compare preserving EC against a from-scratch recolor
   when a batch of changes lands.

   Run with: dune exec examples/coloring_change.exe *)

let () =
  let rng = Ec_util.Rng.create 404 in
  let colors = 6 in
  let g, planted =
    Ec_coloring.Graph.random_planted rng ~num_nodes:40 ~colors ~edges:90
  in
  Printf.printf "Interference graph: %d live ranges, %d conflicts, %d registers\n"
    (Ec_coloring.Graph.num_nodes g) (Ec_coloring.Graph.num_edges g) colors;
  assert (Ec_coloring.Graph.proper g planted);

  (* Initial allocation through the ILP encoding, with enabling rows:
     every live range keeps a spare register. *)
  let enc = Ec_coloring.Encode_coloring.make g ~colors in
  Ec_coloring.Ec_ops.add_enabling enc;
  let opts =
    { Ec_ilpsolver.Bnb.default_options with budget = Ec_util.Budget.of_time 20.0 }
  in
  let solution =
    (Ec_ilpsolver.Bnb.solve_decision_response ~options:opts
       (Ec_coloring.Encode_coloring.model enc))
      .Ec_ilpsolver.Bnb.solution
  in
  let allocation =
    match Ec_coloring.Encode_coloring.decode enc solution with
    | Some c -> c
    | None -> failwith "no enabled allocation with this register budget"
  in
  assert (Ec_coloring.Graph.proper g allocation);
  Printf.printf "Enabled allocation found: every range has a spare register: %b\n\n"
    (Ec_coloring.Ec_ops.enabled g ~colors allocation);

  (* A stream of interference-edge insertions. *)
  Printf.printf "%-6s %-20s %-10s %-16s %s\n" "step" "change" "conflicts"
    "local repairs" "cone";
  let g = ref g in
  let alloc = ref allocation in
  for step = 1 to 10 do
    (* draw a currently-absent edge *)
    let rec draw guard =
      if guard = 0 then None
      else begin
        let u = 1 + Ec_util.Rng.int rng (Ec_coloring.Graph.num_nodes !g) in
        let w = 1 + Ec_util.Rng.int rng (Ec_coloring.Graph.num_nodes !g) in
        if u = w || Ec_coloring.Graph.adjacent !g u w then draw (guard - 1)
        else Some (u, w)
      end
    in
    match draw 1000 with
    | None -> ()
    | Some (u, w) ->
      let change = Ec_coloring.Ec_ops.Add_edge (u, w) in
      g := Ec_coloring.Ec_ops.apply_change !g change;
      let r = Ec_coloring.Ec_ops.fast_resolve ~options:opts !g ~colors !alloc in
      (match r.Ec_coloring.Ec_ops.coloring with
      | Some c ->
        assert (Ec_coloring.Graph.proper !g c);
        alloc := c;
        Printf.printf "%-6d %-20s %-10d %-16d %d\n" step
          (Ec_coloring.Ec_ops.change_to_string change)
          (List.length r.Ec_coloring.Ec_ops.conflicted)
          r.Ec_coloring.Ec_ops.locally_repaired r.Ec_coloring.Ec_ops.cone_nodes
      | None ->
        Printf.printf "%-6d %-20s spill needed (infeasible with %d registers)\n" step
          (Ec_coloring.Ec_ops.change_to_string change) colors)
  done;

  (* Batch change, then preserving EC vs from-scratch. *)
  Printf.printf "\nBatch of 5 more conflicts, then a full re-allocation:\n";
  for _ = 1 to 5 do
    let u = 1 + Ec_util.Rng.int rng (Ec_coloring.Graph.num_nodes !g) in
    let w = 1 + Ec_util.Rng.int rng (Ec_coloring.Graph.num_nodes !g) in
    if u <> w then g := Ec_coloring.Graph.add_edge !g u w
  done;
  let fresh_enc = Ec_coloring.Encode_coloring.make !g ~colors in
  let fresh =
    (Ec_ilpsolver.Bnb.solve_decision_response ~options:opts
       (Ec_coloring.Encode_coloring.model fresh_enc))
      .Ec_ilpsolver.Bnb.solution
  in
  (match Ec_coloring.Encode_coloring.decode fresh_enc fresh with
  | Some c ->
    let kept = ref 0 in
    for v = 1 to Ec_coloring.Graph.num_nodes !g do
      if v < Array.length !alloc && c.(v) = !alloc.(v) then incr kept
    done;
    Printf.printf "  from scratch: %d of %d registers unchanged (by accident)\n" !kept
      (Ec_coloring.Graph.num_nodes !g)
  | None -> print_endline "  from scratch: infeasible");
  let p =
    Ec_coloring.Ec_ops.preserving_resolve ~options:opts !g ~colors ~reference:!alloc
  in
  match p.Ec_coloring.Ec_ops.coloring with
  | Some c ->
    assert (Ec_coloring.Graph.proper !g c);
    Printf.printf "  preserving EC: %d of %d unchanged%s\n" p.Ec_coloring.Ec_ops.preserved
      p.Ec_coloring.Ec_ops.total
      (if p.Ec_coloring.Ec_ops.optimal then " (provably the maximum)" else "")
  | None -> print_endline "  preserving EC: infeasible"
