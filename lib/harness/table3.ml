type row = {
  name : string;
  num_vars : int;
  num_clauses : int;
  pct_original : float;
  pct_with_ec : float;
  trials : int;
  ec_optimal : int;
}

type result = { rows : row list }

let preserving_engine config (inst : Ec_instances.Registry.instance) =
  match config.Protocol.preserving with
  | Protocol.Forced_ilp -> Ec_core.Preserving.Ilp_objective (Protocol.bnb_options config)
  | Protocol.Forced_maxsat ->
    Ec_core.Preserving.Sat_maxsat
      { Ec_sat.Maxsat.default_options with budget = config.Protocol.budget }
  | Protocol.Tiered ->
    if Protocol.is_heuristic_tier inst then
      Ec_core.Preserving.Sat_cardinality Ec_sat.Cdcl.default_options
    else Ec_core.Preserving.Ilp_objective (Protocol.bnb_options config)

let baseline_resolve config tie_seed f' =
  let options = { (Protocol.bnb_options config) with tie_seed = Some tie_seed } in
  let enc = Ec_core.Encode.of_formula f' in
  let r = Ec_ilpsolver.Bnb.solve_response ~options (Ec_core.Encode.model enc) in
  Ec_core.Encode.decode enc r.Ec_ilpsolver.Bnb.solution

let run_instance config rng (inst : Ec_instances.Registry.instance) =
  match Protocol.initial_solve config inst with
  | None -> None
  | Some { Protocol.certified = false; _ } -> None
  | Some { Protocol.assignment = a0; _ } ->
    let orig_fracs = ref [] and ec_fracs = ref [] in
    let ec_optimal = ref 0 in
    let trials_done = ref 0 in
    for trial = 1 to config.trials do
      (* "Making sure that we did not make the instance
         non-satisfiable": tightening draws are vetted by a quick CDCL
         call, as the paper's protocol implies.  The old solution
         itself is allowed to break — that is what Table 3 measures. *)
      let satisfiable f =
        let options =
          { Ec_sat.Cdcl.default_options with
            budget = Ec_util.Budget.create ~conflicts:200_000 ()
          }
        in
        match (Ec_sat.Cdcl.solve_response ~options f).Ec_sat.Cdcl.outcome with
        | Ec_sat.Outcome.Sat _ -> true
        | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> false
      in
      let script =
        Ec_cnf.Change.preserving_ec_script ~satisfiable rng inst.formula ~reference:a0
          ~add_vars:5 ~del_vars:5 ~add_clauses:5 ~del_clauses:5 ~clause_width:3
      in
      let f' = Ec_cnf.Change.apply_script inst.formula script in
      let reference = Ec_cnf.Assignment.extend a0 (Ec_cnf.Formula.num_vars f') in
      let baseline = baseline_resolve config (config.seed + (trial * 7919)) f' in
      let ec =
        Ec_core.Preserving.resolve ~engine:(preserving_engine config inst) f' ~reference
      in
      match (baseline, ec.Ec_core.Preserving.solution) with
      | Some b, Some _ ->
        incr trials_done;
        orig_fracs :=
          Ec_cnf.Assignment.preserved_fraction ~old_assignment:reference b :: !orig_fracs;
        ec_fracs := Ec_core.Preserving.preserved_fraction ec :: !ec_fracs;
        if ec.Ec_core.Preserving.optimal then incr ec_optimal
      | _ -> () (* a solver failure within caps: drop the trial *)
    done;
    if !trials_done = 0 then None
    else
      Some
        { name = inst.spec.name;
          num_vars = inst.spec.num_vars;
          num_clauses = inst.spec.num_clauses;
          pct_original = 100.0 *. Ec_util.Stats.mean !orig_fracs;
          pct_with_ec = 100.0 *. Ec_util.Stats.mean !ec_fracs;
          trials = !trials_done;
          ec_optimal = !ec_optimal }

let run ?(progress = fun _ -> ()) config =
  let rows =
    Protocol.map_instances config
      (fun (idx, inst) ->
        progress ("table3: " ^ inst.Ec_instances.Registry.spec.name);
        let rng = Ec_util.Rng.create (Protocol.instance_seed config idx + 3) in
        Protocol.with_instance_span
          ~instance:inst.Ec_instances.Registry.spec.name ~stage:"table3"
          (fun () -> run_instance config rng inst))
      (List.mapi (fun i inst -> (i, inst)) (Protocol.instances config))
    |> List.filter_map Fun.id
  in
  { rows }

let render result =
  let open Ec_util.Tablefmt in
  let t =
    create
      ~headers:
        [ ("Instance", Left); ("#Vars", Right); ("#Clauses", Right);
          ("% Solution Original", Right); ("% Solution with EC", Right);
          ("opt/trials", Right) ]
  in
  List.iter
    (fun r ->
      add_row t
        [ r.name; cell_int r.num_vars; cell_int r.num_clauses;
          cell_float ~decimals:1 r.pct_original; cell_float ~decimals:1 r.pct_with_ec;
          Printf.sprintf "%d/%d" r.ec_optimal r.trials ])
    result.rows;
  add_separator t;
  let mean f = Ec_util.Stats.mean (List.map f result.rows) in
  let med f = Ec_util.Stats.median (List.map f result.rows) in
  add_row t
    [ "average"; "-"; "-"; cell_float ~decimals:2 (mean (fun r -> r.pct_original));
      cell_float ~decimals:2 (mean (fun r -> r.pct_with_ec)); "" ];
  add_row t
    [ "median"; "-"; "-"; cell_float ~decimals:2 (med (fun r -> r.pct_original));
      cell_float ~decimals:2 (med (fun r -> r.pct_with_ec)); "" ];
  "Table 3: Preserving EC on SAT (cf. paper Table 3)\n" ^ render t
