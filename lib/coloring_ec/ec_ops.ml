type change =
  | Add_edge of int * int
  | Remove_edge of int * int
  | Add_node

let apply_change g = function
  | Add_edge (u, w) -> Graph.add_edge g u w
  | Remove_edge (u, w) -> Graph.remove_edge g u w
  | Add_node -> Graph.add_node g

let change_to_string = function
  | Add_edge (u, w) -> Printf.sprintf "add edge (%d,%d)" u w
  | Remove_edge (u, w) -> Printf.sprintf "remove edge (%d,%d)" u w
  | Add_node -> "add node"

(* -- enabling -- *)

let add_enabling enc =
  let g = Encode_coloring.graph enc in
  let colors = Encode_coloring.colors enc in
  let model = Encode_coloring.model enc in
  for node = 1 to Graph.num_nodes g do
    let spare_ids =
      List.init colors (fun c0 ->
          let color = c0 + 1 in
          let s =
            Ec_ilp.Model.add_var model
              ~name:(Printf.sprintf "spare_n%dc%d" node color)
              Ec_ilp.Model.Binary
          in
          (* the node itself must not wear the spare color *)
          Ec_ilp.Model.add_constr model
            (Ec_ilp.Linexpr.of_terms
               [ (1.0, s); (1.0, Encode_coloring.var enc ~node ~color) ])
            Ec_ilp.Model.Le 1.0;
          (* nor may any neighbour *)
          List.iter
            (fun w ->
              Ec_ilp.Model.add_constr model
                (Ec_ilp.Linexpr.of_terms
                   [ (1.0, s); (1.0, Encode_coloring.var enc ~node:w ~color) ])
                Ec_ilp.Model.Le 1.0)
            (Graph.neighbors g node);
          s)
    in
    Ec_ilp.Model.add_constr model
      ~name:(Printf.sprintf "flex_node%d" node)
      (Ec_ilp.Linexpr.of_terms (List.map (fun s -> (1.0, s)) spare_ids))
      Ec_ilp.Model.Ge 1.0
  done

let spare_colors g ~colors color_of node =
  let worn_nearby =
    color_of.(node) :: List.map (fun w -> color_of.(w)) (Graph.neighbors g node)
  in
  List.filter
    (fun c -> not (List.mem c worn_nearby))
    (List.init colors (fun c0 -> c0 + 1))

let enabled g ~colors color_of =
  let ok = ref true in
  for node = 1 to Graph.num_nodes g do
    if spare_colors g ~colors color_of node = [] then ok := false
  done;
  !ok

(* -- fast -- *)

type fast_result = {
  coloring : int array option;
  conflicted : int list;
  locally_repaired : int;
  cone_nodes : int;
}

let conflicts g color_of =
  List.sort_uniq Int.compare
    (List.concat_map
       (fun (u, w) ->
         if color_of.(u) >= 1 && color_of.(u) = color_of.(w) then [ u; w ] else [])
       (Graph.edges g))

let uncolored g color_of =
  List.filter
    (fun v -> color_of.(v) < 1)
    (List.init (Graph.num_nodes g) (fun i -> i + 1))

(* ILP over the cone: free nodes get re-colored, others are pinned. *)
let solve_cone options g ~colors color_of free_nodes =
  let enc = Encode_coloring.make g ~colors in
  let model = Encode_coloring.model enc in
  let free = Array.make (Graph.num_nodes g + 1) false in
  List.iter (fun v -> free.(v) <- true) free_nodes;
  for node = 1 to Graph.num_nodes g do
    if (not free.(node)) && color_of.(node) >= 1 then
      Ec_ilp.Model.add_constr model
        ~name:(Printf.sprintf "pin_node%d" node)
        (Ec_ilp.Linexpr.var (Encode_coloring.var enc ~node ~color:color_of.(node)))
        Ec_ilp.Model.Eq 1.0
  done;
  let solution =
    (Ec_ilpsolver.Bnb.solve_decision_response ~options model).Ec_ilpsolver.Bnb.solution
  in
  Encode_coloring.decode enc solution

let fast_resolve ?(options = Ec_ilpsolver.Bnb.default_options) g ~colors color_of =
  let color_of = Array.copy color_of in
  let color_of =
    (* changed graphs may have fresh nodes beyond the old array *)
    if Array.length color_of < Graph.num_nodes g + 1 then begin
      let bigger = Array.make (Graph.num_nodes g + 1) 0 in
      Array.blit color_of 0 bigger 0 (Array.length color_of);
      bigger
    end
    else color_of
  in
  let broken = conflicts g color_of @ uncolored g color_of in
  if broken = [] then
    { coloring = Some color_of; conflicted = []; locally_repaired = 0; cone_nodes = 0 }
  else begin
    (* pass 1: one-node local recolors using spare colors *)
    let locally_repaired = ref 0 in
    let remaining =
      List.filter
        (fun v ->
          match spare_colors g ~colors color_of v with
          | c :: _ ->
            color_of.(v) <- c;
            incr locally_repaired;
            false
          | [] ->
            (* also allowed: any color unused by neighbours *)
            let worn = List.map (fun w -> color_of.(w)) (Graph.neighbors g v) in
            let rec first c =
              if c > colors then None
              else if List.mem c worn then first (c + 1)
              else Some c
            in
            (match first 1 with
            | Some c ->
              color_of.(v) <- c;
              incr locally_repaired;
              false
            | None -> true))
        broken
    in
    let still = conflicts g color_of @ uncolored g color_of in
    let remaining = List.sort_uniq Int.compare (remaining @ still) in
    if remaining = [] then
      { coloring = Some color_of;
        conflicted = broken;
        locally_repaired = !locally_repaired;
        cone_nodes = 0 }
    else begin
      (* pass 2: ILP over the cone = conflicted nodes + neighbours *)
      let cone =
        List.sort_uniq Int.compare
          (List.concat_map (fun v -> v :: Graph.neighbors g v) remaining)
      in
      match solve_cone options g ~colors color_of cone with
      | Some fixed when Graph.proper g fixed ->
        { coloring = Some fixed;
          conflicted = broken;
          locally_repaired = !locally_repaired;
          cone_nodes = List.length cone }
      | Some _ | None -> (
        (* cone infeasible under pins: full re-solve *)
        let enc = Encode_coloring.make g ~colors in
        let solution =
          (Ec_ilpsolver.Bnb.solve_decision_response ~options (Encode_coloring.model enc))
            .Ec_ilpsolver.Bnb.solution
        in
        match Encode_coloring.decode enc solution with
        | Some c ->
          { coloring = Some c;
            conflicted = broken;
            locally_repaired = !locally_repaired;
            cone_nodes = Graph.num_nodes g }
        | None ->
          { coloring = None;
            conflicted = broken;
            locally_repaired = !locally_repaired;
            cone_nodes = Graph.num_nodes g })
    end
  end

(* -- preserving -- *)

type preserve_result = {
  coloring : int array option;
  preserved : int;
  total : int;
  optimal : bool;
}

let preserving_resolve ?(options = Ec_ilpsolver.Bnb.default_options) ?(pins = []) g
    ~colors ~reference =
  let enc = Encode_coloring.make g ~colors in
  let model = Encode_coloring.model enc in
  let n = Graph.num_nodes g in
  let compared = min n (Array.length reference - 1) in
  let terms = ref [] in
  for node = 1 to compared do
    let c = reference.(node) in
    if c >= 1 && c <= colors then
      terms := (1.0, Encode_coloring.var enc ~node ~color:c) :: !terms
  done;
  Ec_ilp.Model.set_objective model Ec_ilp.Model.Maximize (Ec_ilp.Linexpr.of_terms !terms);
  List.iter
    (fun node ->
      if node < 1 || node > compared then
        invalid_arg "Ec_ops.preserving_resolve: pinned node out of range";
      let c = reference.(node) in
      if c >= 1 && c <= colors then
        Ec_ilp.Model.add_constr model
          ~name:(Printf.sprintf "pin%d" node)
          (Ec_ilp.Linexpr.var (Encode_coloring.var enc ~node ~color:c))
          Ec_ilp.Model.Eq 1.0)
    pins;
  let solution =
    (Ec_ilpsolver.Bnb.solve_response ~options model).Ec_ilpsolver.Bnb.solution
  in
  match Encode_coloring.decode enc solution with
  | None -> { coloring = None; preserved = 0; total = compared; optimal = true }
  | Some coloring ->
    (* A node may legally wear several colors; when the reference color
       is among them, decode to it (the default decode picks the lowest
       color and would undercount preservation). *)
    for node = 1 to compared do
      let c = reference.(node) in
      if
        c >= 1 && c <= colors
        && solution.Ec_ilp.Solution.values.(Encode_coloring.var enc ~node ~color:c) > 0.5
      then coloring.(node) <- c
    done;
    let preserved = ref 0 in
    for node = 1 to compared do
      if coloring.(node) = reference.(node) then incr preserved
    done;
    { coloring = Some coloring;
      preserved = !preserved;
      total = compared;
      optimal = solution.Ec_ilp.Solution.status = Ec_ilp.Solution.Optimal }
