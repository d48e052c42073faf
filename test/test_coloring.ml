(* Tests for Ec_coloring: the graph substrate and the three EC
   techniques on the coloring application. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module G = Ec_coloring.Graph
module E = Ec_coloring.Encode_coloring
module Ops = Ec_coloring.Ec_ops

(* ---- Graph ---- *)

let test_graph_basics () =
  let g = G.create ~num_nodes:4 [ (1, 2); (2, 3); (2, 1) ] in
  check Alcotest.int "nodes" 4 (G.num_nodes g);
  check Alcotest.int "edges deduped" 2 (G.num_edges g);
  check (Alcotest.list Alcotest.int) "neighbors" [ 1; 3 ] (G.neighbors g 2);
  check Alcotest.bool "adjacent" true (G.adjacent g 1 2);
  check Alcotest.bool "not adjacent" false (G.adjacent g 1 4);
  check Alcotest.int "degree" 2 (G.degree g 2);
  check Alcotest.int "max degree" 2 (G.max_degree g);
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (G.create ~num_nodes:2 [ (1, 1) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.create: endpoint out of range") (fun () ->
      ignore (G.create ~num_nodes:2 [ (1, 3) ]))

let test_graph_updates () =
  let g = G.create ~num_nodes:3 [ (1, 2) ] in
  let g2 = G.add_edge g 2 3 in
  check Alcotest.int "edge added" 2 (G.num_edges g2);
  check Alcotest.int "original untouched" 1 (G.num_edges g);
  check Alcotest.bool "idempotent add" true (G.add_edge g 1 2 == g);
  let g3 = G.remove_edge g2 1 2 in
  check Alcotest.bool "removed" false (G.adjacent g3 1 2);
  let g4 = G.add_node g in
  check Alcotest.int "node added" 4 (G.num_nodes g4);
  let g5 = G.remove_node g2 2 in
  check Alcotest.int "node isolation removes its edges" 0 (G.num_edges g5);
  check Alcotest.int "node ids stable" 3 (G.num_nodes g5)

let test_graph_planted_and_greedy () =
  let rng = Ec_util.Rng.create 8 in
  let g, planted = G.random_planted rng ~num_nodes:25 ~colors:5 ~edges:60 in
  check Alcotest.int "edges placed" 60 (G.num_edges g);
  check Alcotest.bool "planted proper" true (G.proper g planted);
  let greedy = G.greedy_coloring g in
  check Alcotest.bool "greedy proper" true (G.proper g greedy);
  check Alcotest.bool "greedy bounded by maxdeg+1" true
    (Array.fold_left max 0 greedy <= G.max_degree g + 1)

let prop_proper_detects_conflicts =
  QCheck.Test.make ~name:"proper rejects monochrome edges" ~count:100
    QCheck.(int_range 2 12)
    (fun n ->
      let g = G.create ~num_nodes:n [ (1, 2) ] in
      let mono = Array.make (n + 1) 1 in
      let fixed = Array.copy mono in
      fixed.(2) <- 2;
      (not (G.proper g mono)) && G.proper g fixed)

(* ---- Encoding ---- *)

let test_encoding_solves_triangle () =
  let g = G.create ~num_nodes:3 [ (1, 2); (2, 3); (1, 3) ] in
  (* triangle is 3-chromatic: infeasible with 2 colors, feasible with 3 *)
  let e2 = E.make g ~colors:2 in
  let s2 = (Ec_ilpsolver.Bnb.solve_decision_response (E.model e2)).solution in
  check Alcotest.bool "2 colors infeasible" false (Ec_ilp.Solution.has_point s2);
  let e3 = E.make g ~colors:3 in
  let s3 = (Ec_ilpsolver.Bnb.solve_decision_response (E.model e3)).solution in
  (match E.decode e3 s3 with
  | Some c -> check Alcotest.bool "3-coloring proper" true (G.proper g c)
  | None -> Alcotest.fail "triangle is 3-colorable")

let test_encoding_roundtrip () =
  let g = G.create ~num_nodes:3 [ (1, 2) ] in
  let e = E.make g ~colors:2 in
  let coloring = [| 0; 1; 2; 1 |] in
  let decoded = E.coloring_of_point e (E.point_of_coloring e coloring) in
  check (Alcotest.array Alcotest.int) "roundtrip" coloring decoded

let prop_encoding_matches_greedy_feasibility =
  QCheck.Test.make ~name:"ILP feasible whenever greedy colors with <= k" ~count:60
    QCheck.(pair (int_range 3 10) (int_range 0 15))
    (fun (n, extra_edges) ->
      let rng = Ec_util.Rng.create (n + (100 * extra_edges)) in
      let max_edges = n * (n - 1) / 2 in
      let g =
        List.fold_left
          (fun g _ ->
            let u = 1 + Ec_util.Rng.int rng n and w = 1 + Ec_util.Rng.int rng n in
            if u = w then g else G.add_edge g u w)
          (G.create ~num_nodes:n [])
          (List.init (min extra_edges max_edges) Fun.id)
      in
      let greedy = G.greedy_coloring g in
      let k = Array.fold_left max 0 greedy in
      let e = E.make g ~colors:(max k 1) in
      let s = (Ec_ilpsolver.Bnb.solve_decision_response (E.model e)).solution in
      match E.decode e s with
      | Some c -> G.proper g c
      | None -> false)

(* ---- Enabling ---- *)

let test_enabling_constraints () =
  let rng = Ec_util.Rng.create 9 in
  let g, _ = G.random_planted rng ~num_nodes:15 ~colors:5 ~edges:25 in
  let e = E.make g ~colors:5 in
  Ops.add_enabling e;
  let s = (Ec_ilpsolver.Bnb.solve_decision_response (E.model e)).solution in
  match E.decode e s with
  | Some c ->
    check Alcotest.bool "proper" true (G.proper g c);
    check Alcotest.bool "every node has a spare color" true (Ops.enabled g ~colors:5 c)
  | None -> Alcotest.fail "sparse instance should be enableable"

let test_enabling_infeasible_when_tight () =
  (* complete graph on k nodes with exactly k colors: no spare exists *)
  let k = 4 in
  let g =
    G.create ~num_nodes:k
      (List.concat_map
         (fun u -> List.filter_map (fun w -> if u < w then Some (u, w) else None)
                     (List.init k (fun i -> i + 1)))
         (List.init k (fun i -> i + 1)))
  in
  let e = E.make g ~colors:k in
  Ops.add_enabling e;
  let s = (Ec_ilpsolver.Bnb.solve_decision_response (E.model e)).solution in
  check Alcotest.bool "K4 with 4 colors has no enabled coloring" false
    (Ec_ilp.Solution.has_point s)

let test_spare_colors () =
  let g = G.create ~num_nodes:3 [ (1, 2) ] in
  let coloring = [| 0; 1; 2; 1 |] in
  check (Alcotest.list Alcotest.int) "spares of node 1" [ 3 ]
    (Ops.spare_colors g ~colors:3 coloring 1);
  check (Alcotest.list Alcotest.int) "isolated node spares" [ 2; 3 ]
    (Ops.spare_colors g ~colors:3 coloring 3)

(* ---- Fast EC ---- *)

let test_fast_noop () =
  let g = G.create ~num_nodes:3 [ (1, 2) ] in
  let coloring = [| 0; 1; 2; 1 |] in
  let r = Ops.fast_resolve g ~colors:3 coloring in
  check Alcotest.bool "already proper" true (r.Ops.conflicted = []);
  check Alcotest.bool "unchanged" true (r.Ops.coloring = Some coloring)

let test_fast_local_repair () =
  (* enabled colorings absorb an edge insertion with a local recolor *)
  let rng = Ec_util.Rng.create 10 in
  let g, _ = G.random_planted rng ~num_nodes:20 ~colors:6 ~edges:30 in
  let e = E.make g ~colors:6 in
  Ops.add_enabling e;
  let s = (Ec_ilpsolver.Bnb.solve_decision_response (E.model e)).solution in
  match E.decode e s with
  | None -> Alcotest.fail "enableable"
  | Some c ->
    (* find a monochrome non-edge and insert it *)
    let rec find guard =
      if guard = 0 then None
      else
        let u = 1 + Ec_util.Rng.int rng 20 and w = 1 + Ec_util.Rng.int rng 20 in
        if u <> w && (not (G.adjacent g u w)) && c.(u) = c.(w) then Some (u, w)
        else find (guard - 1)
    in
    (match find 10000 with
    | None -> () (* no monochrome non-edge: nothing to test *)
    | Some (u, w) ->
      let g' = G.add_edge g u w in
      let r = Ops.fast_resolve g' ~colors:6 c in
      (match r.Ops.coloring with
      | Some c' ->
        check Alcotest.bool "repaired" true (G.proper g' c');
        check Alcotest.bool "conflict seen" true (r.Ops.conflicted <> []);
        check Alcotest.bool "local (no cone)" true (r.Ops.cone_nodes = 0)
      | None -> Alcotest.fail "repairable"))

let prop_fast_always_proper =
  QCheck.Test.make ~name:"fast_resolve output is always proper" ~count:60
    QCheck.(pair (int_range 4 12) (int_range 0 10))
    (fun (n, seed) ->
      let rng = Ec_util.Rng.create seed in
      let colors = 4 in
      match G.random_planted rng ~num_nodes:n ~colors ~edges:(n - 2) with
      | exception Invalid_argument _ ->
        QCheck.assume_fail () (* degenerate color draw: too few bichromatic pairs *)
      | g, planted ->
      (* random change: add an edge *)
      let u = 1 + Ec_util.Rng.int rng n and w = 1 + Ec_util.Rng.int rng n in
      let g' = if u = w then g else G.add_edge g u w in
      let r = Ops.fast_resolve g' ~colors planted in
      match r.Ops.coloring with
      | Some c -> G.proper g' c
      | None -> true (* infeasible is a legal outcome when K5-ish emerges *))

(* ---- Preserving EC ---- *)

let test_preserving_optimal_vs_scratch () =
  let rng = Ec_util.Rng.create 11 in
  let g, planted = G.random_planted rng ~num_nodes:15 ~colors:4 ~edges:25 in
  (* add edges that invalidate the planted coloring *)
  let rec add_conflict g guard =
    if guard = 0 then g
    else
      let u = 1 + Ec_util.Rng.int rng 15 and w = 1 + Ec_util.Rng.int rng 15 in
      if u <> w && (not (G.adjacent g u w)) && planted.(u) = planted.(w) then
        G.add_edge g u w
      else add_conflict g (guard - 1)
    in
  let g' = add_conflict g 10000 in
  let r = Ops.preserving_resolve g' ~colors:4 ~reference:planted in
  match r.Ops.coloring with
  | Some c ->
    check Alcotest.bool "proper" true (G.proper g' c);
    check Alcotest.bool "optimal flag" true r.Ops.optimal;
    check Alcotest.bool "high preservation" true (r.Ops.preserved >= r.Ops.total - 2)
  | None -> Alcotest.fail "still colorable"

let test_preserving_pins () =
  let g = G.create ~num_nodes:3 [ (1, 2); (2, 3) ] in
  let reference = [| 0; 1; 2; 1 |] in
  let r = Ops.preserving_resolve ~pins:[ 1; 3 ] g ~colors:3 ~reference in
  match r.Ops.coloring with
  | Some c ->
    check Alcotest.int "pin 1" 1 c.(1);
    check Alcotest.int "pin 3" 1 c.(3)
  | None -> Alcotest.fail "feasible with pins"

let test_changes () =
  let g = G.create ~num_nodes:2 [] in
  let g1 = Ops.apply_change g (Ops.Add_edge (1, 2)) in
  check Alcotest.int "edge" 1 (G.num_edges g1);
  let g2 = Ops.apply_change g1 Ops.Add_node in
  check Alcotest.int "node" 3 (G.num_nodes g2);
  let g3 = Ops.apply_change g2 (Ops.Remove_edge (1, 2)) in
  check Alcotest.int "removed" 0 (G.num_edges g3);
  check Alcotest.string "to_string" "add edge (1,2)" (Ops.change_to_string (Ops.Add_edge (1, 2)))

let tests =
  [ ( "coloring.graph",
      [ Alcotest.test_case "basics" `Quick test_graph_basics;
        Alcotest.test_case "updates" `Quick test_graph_updates;
        Alcotest.test_case "planted + greedy" `Quick test_graph_planted_and_greedy;
        qtest prop_proper_detects_conflicts ] );
    ( "coloring.encoding",
      [ Alcotest.test_case "triangle chromatic number" `Quick test_encoding_solves_triangle;
        Alcotest.test_case "point roundtrip" `Quick test_encoding_roundtrip;
        qtest prop_encoding_matches_greedy_feasibility ] );
    ( "coloring.enabling",
      [ Alcotest.test_case "spare-color constraints" `Quick test_enabling_constraints;
        Alcotest.test_case "tight instance infeasible" `Quick
          test_enabling_infeasible_when_tight;
        Alcotest.test_case "spare_colors" `Quick test_spare_colors ] );
    ( "coloring.fast",
      [ Alcotest.test_case "no-op" `Quick test_fast_noop;
        Alcotest.test_case "local repair on enabled coloring" `Quick
          test_fast_local_repair;
        qtest prop_fast_always_proper ] );
    ( "coloring.preserving",
      [ Alcotest.test_case "optimal preservation" `Quick test_preserving_optimal_vs_scratch;
        Alcotest.test_case "pins" `Quick test_preserving_pins;
        Alcotest.test_case "changes" `Quick test_changes ] ) ]
