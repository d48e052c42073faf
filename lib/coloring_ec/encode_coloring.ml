type t = {
  graph : Graph.t;
  colors : int;
  model : Ec_ilp.Model.t;
}

let var_id t ~node ~color = ((node - 1) * t.colors) + color - 1

let make graph ~colors =
  if colors < 1 then invalid_arg "Encode_coloring.make: colors < 1";
  let model = Ec_ilp.Model.create () in
  let n = Graph.num_nodes graph in
  for node = 1 to n do
    for color = 1 to colors do
      ignore (Ec_ilp.Model.add_var model ~name:(Printf.sprintf "n%dc%d" node color))
    done
  done;
  let t = { graph; colors; model } in
  (* cover rows *)
  for node = 1 to n do
    let terms = List.init colors (fun c0 -> (1.0, var_id t ~node ~color:(c0 + 1))) in
    Ec_ilp.Model.add_constr model
      ~name:(Printf.sprintf "cover%d" node)
      (Ec_ilp.Linexpr.of_terms terms)
      Ec_ilp.Model.Ge 1.0
  done;
  (* conflict rows *)
  List.iter
    (fun (u, w) ->
      for color = 1 to colors do
        Ec_ilp.Model.add_constr model
          ~name:(Printf.sprintf "edge%d-%d/c%d" u w color)
          (Ec_ilp.Linexpr.of_terms
             [ (1.0, var_id t ~node:u ~color); (1.0, var_id t ~node:w ~color) ])
          Ec_ilp.Model.Le 1.0
      done)
    (Graph.edges graph);
  (* minimize selected pairs: spare capacity shows up as multi-colored
     nodes only when constraints force nothing *)
  let all = List.init (n * colors) (fun i -> (1.0, i)) in
  Ec_ilp.Model.set_objective model Ec_ilp.Model.Minimize (Ec_ilp.Linexpr.of_terms all);
  t

let graph t = t.graph

let colors t = t.colors

let model t = t.model

let var t ~node ~color =
  if node < 1 || node > Graph.num_nodes t.graph || color < 1 || color > t.colors then
    invalid_arg "Encode_coloring.var: out of range";
  var_id t ~node ~color

let coloring_of_point t point =
  let n = Graph.num_nodes t.graph in
  Array.init (n + 1) (fun node ->
      if node = 0 then 0
      else
        let rec first color =
          if color > t.colors then 0
          else if point.(var_id t ~node ~color) > 0.5 then color
          else first (color + 1)
        in
        first 1)

let point_of_coloring t color_of =
  let n = Graph.num_nodes t.graph in
  let point = Array.make (Ec_ilp.Model.num_vars t.model) 0.0 in
  for node = 1 to n do
    let c = color_of.(node) in
    if c >= 1 && c <= t.colors then point.(var_id t ~node ~color:c) <- 1.0
  done;
  point

let decode t (solution : Ec_ilp.Solution.t) =
  if Ec_ilp.Solution.has_point solution then Some (coloring_of_point t solution.values)
  else None
