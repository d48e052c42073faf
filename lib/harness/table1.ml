type row = {
  name : string;
  num_vars : int;
  num_clauses : int;
  orig_s : float;
  orig_status : string;
  sc_norm : float;
  sc_status : string;
  sc_verified : bool;
  of_norm : float;
  of_status : string;
}

type result = {
  exact_rows : row list;
  heuristic_rows : row list;
}

let status_ilp (s : Ec_ilp.Solution.t) = Ec_ilp.Solution.status_to_string s.status

(* Exact tier: B&B full optimization in the 2002-like configuration. *)
let run_exact config (inst : Ec_instances.Registry.instance) =
  let options =
    { (Protocol.bnb_options config) with greedy_completion = false }
  in
  let solve model =
    (Ec_ilpsolver.Bnb.solve_response ~options model).Ec_ilpsolver.Bnb.solution
  in
  let enc0 = Ec_core.Encode.of_formula inst.formula in
  let s0, t0 = Ec_util.Stopwatch.time (fun () -> solve (Ec_core.Encode.model enc0)) in
  let enc_sc = Ec_core.Encode.of_formula inst.formula in
  ignore (Ec_core.Enabling.add Ec_core.Enabling.Constraints enc_sc);
  let s1, t1 = Ec_util.Stopwatch.time (fun () -> solve (Ec_core.Encode.model enc_sc)) in
  let enc_of = Ec_core.Encode.of_formula inst.formula in
  ignore (Ec_core.Enabling.add (Ec_core.Enabling.Objective 1.0) enc_of);
  let s2, t2 = Ec_util.Stopwatch.time (fun () -> solve (Ec_core.Encode.model enc_of)) in
  let sc_verified =
    match Ec_core.Encode.decode enc_sc s1 with
    | Some a -> Ec_core.Enabling.verify inst.formula a
    | None -> false
  in
  { name = inst.spec.name;
    num_vars = inst.spec.num_vars;
    num_clauses = inst.spec.num_clauses;
    orig_s = t0;
    orig_status = status_ilp s0;
    sc_norm = t1 /. t0;
    sc_status = status_ilp s1;
    sc_verified;
    of_norm = t2 /. t0;
    of_status = status_ilp s2 }

(* Heuristic tier: the min-conflicts solver produces the original
   solution (the role its prototype plays in the paper); the enabling
   runs go through the exact engine in decision mode for SC and capped
   optimization for OF — our heuristic substitute cannot navigate the
   flexibility rows from a cold start (EXPERIMENTS.md, deviation D3). *)
let run_heuristic config (inst : Ec_instances.Registry.instance) =
  let h_options = Protocol.heuristic_options config in
  let enc0 = Ec_core.Encode.of_formula inst.formula in
  let s0, t0 =
    Ec_util.Stopwatch.time (fun () ->
        (Ec_ilpsolver.Heuristic.solve_response ~options:h_options (Ec_core.Encode.model enc0))
          .Ec_ilpsolver.Heuristic.solution)
  in
  let bnb = Protocol.bnb_options config in
  (* The SC/OF columns run on the exact engine, so normalize them by a
     same-engine base run (decision mode on the plain model); mixing
     solvers in a ratio would say nothing. *)
  let enc_base = Ec_core.Encode.of_formula inst.formula in
  let _, t_base =
    Ec_util.Stopwatch.time (fun () ->
        (Ec_ilpsolver.Bnb.solve_decision_response ~options:bnb (Ec_core.Encode.model enc_base))
          .Ec_ilpsolver.Bnb.solution)
  in
  let enc_sc = Ec_core.Encode.of_formula inst.formula in
  ignore (Ec_core.Enabling.add Ec_core.Enabling.Constraints enc_sc);
  let s1, t1 =
    Ec_util.Stopwatch.time (fun () ->
        (Ec_ilpsolver.Bnb.solve_decision_response ~options:bnb (Ec_core.Encode.model enc_sc))
          .Ec_ilpsolver.Bnb.solution)
  in
  let sc_verified =
    match Ec_core.Encode.decode enc_sc s1 with
    | Some a -> Ec_core.Enabling.verify inst.formula a
    | None -> false
  in
  let enc_of = Ec_core.Encode.of_formula inst.formula in
  ignore (Ec_core.Enabling.add (Ec_core.Enabling.Objective 1.0) enc_of);
  let s2, t2 =
    Ec_util.Stopwatch.time (fun () ->
        (Ec_ilpsolver.Bnb.solve_response ~options:bnb (Ec_core.Encode.model enc_of))
          .Ec_ilpsolver.Bnb.solution)
  in
  let status_sol (s : Ec_ilp.Solution.t) = Ec_ilp.Solution.status_to_string s.status in
  { name = inst.spec.name;
    num_vars = inst.spec.num_vars;
    num_clauses = inst.spec.num_clauses;
    orig_s = t0;
    orig_status = status_sol s0;
    sc_norm = t1 /. t_base;
    sc_status = status_sol s1;
    sc_verified;
    of_norm = t2 /. t_base;
    of_status = status_sol s2 }

let run ?(progress = fun _ -> ()) config =
  let instances = Protocol.instances config in
  (* Rows are independent: fan them over the pool (or run in order at
     jobs <= 1 — see Protocol.map_instances) and partition after. *)
  let rows =
    Protocol.map_instances config
      (fun inst ->
        progress ("table1: " ^ inst.Ec_instances.Registry.spec.name);
        Protocol.with_instance_span
          ~instance:inst.Ec_instances.Registry.spec.name ~stage:"table1"
          (fun () ->
            if Protocol.is_heuristic_tier inst then
              (inst, `Heuristic (run_heuristic config inst))
            else (inst, `Exact (run_exact config inst))))
      instances
  in
  { exact_rows =
      List.filter_map (fun (_, r) -> match r with `Exact row -> Some row | `Heuristic _ -> None) rows;
    heuristic_rows =
      List.filter_map (fun (_, r) -> match r with `Heuristic row -> Some row | `Exact _ -> None) rows }

let summary_rows rows =
  let of_col f = List.map f rows in
  [ ("average",
     Ec_util.Stats.mean (of_col (fun r -> r.orig_s)),
     Ec_util.Stats.mean (of_col (fun r -> r.sc_norm)),
     Ec_util.Stats.mean (of_col (fun r -> r.of_norm)));
    ("median",
     Ec_util.Stats.median (of_col (fun r -> r.orig_s)),
     Ec_util.Stats.median (of_col (fun r -> r.sc_norm)),
     Ec_util.Stats.median (of_col (fun r -> r.of_norm))) ]

let render result =
  let open Ec_util.Tablefmt in
  let t =
    create
      ~headers:
        [ ("Instance", Left); ("#Vars", Right); ("#Clauses", Right);
          ("Orig. Runtime (s)", Right); ("EC (SC) N.R.", Right); ("SC ok", Left);
          ("EC (OF) N.R.", Right); ("status", Left) ]
  in
  let add_tier rows =
    List.iter
      (fun r ->
        add_row t
          [ r.name; cell_int r.num_vars; cell_int r.num_clauses;
            cell_float ~decimals:4 r.orig_s; cell_float r.sc_norm;
            (if r.sc_verified then "yes" else "NO");
            cell_float r.of_norm;
            Printf.sprintf "%s/%s/%s" r.orig_status r.sc_status r.of_status ])
      rows;
    add_separator t;
    List.iter
      (fun (label, orig, sc, of_) ->
        add_row t
          [ label; "-"; "-"; cell_float ~decimals:4 orig; cell_float sc; "";
            cell_float of_; "" ])
      (summary_rows rows);
    add_separator t
  in
  add_tier result.exact_rows;
  if result.heuristic_rows <> [] then add_tier result.heuristic_rows;
  "Table 1: Enabling EC on SAT (cf. paper Table 1)\n" ^ render t
