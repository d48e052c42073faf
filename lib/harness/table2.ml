type row = {
  name : string;
  num_vars : int;
  num_clauses : int;
  orig_s : float;
  avg_sub_vars : float;
  avg_sub_clauses : float;
  avg_new_s : float;
  new_norm : float;
  trials : int;
  fallbacks : int;
}

type result = {
  exact_rows : row list;
  heuristic_rows : row list;
}

let run_instance config rng (inst : Ec_instances.Registry.instance) =
  match Protocol.initial_solve config inst with
  | None -> None
  | Some { Protocol.certified = false; _ } ->
    (* An uncertified "solution" is an unsolved instance, not data. *)
    None
  | Some { Protocol.assignment = a0; time_s = orig_s; certified = _ } ->
    (* Re-solves use the exact engine in decision mode on both tiers
       (the paper's "off-the-shelf solver"): first the Figure-2 cone,
       then, when the cone yields no certified solution, the whole
       modified instance. *)
    let backend = Ec_core.Backend.Ilp_exact (Protocol.bnb_options config) in
    let sub_vars = ref [] and sub_clauses = ref [] and times = ref [] in
    let fallbacks = ref 0 in
    for _ = 1 to config.trials do
      let script =
        Ec_cnf.Change.fast_ec_script rng inst.formula ~eliminate:3 ~add:10
          ~clause_width:3
      in
      let f' = Ec_cnf.Change.apply_script inst.formula script in
      let (), elapsed =
        Ec_util.Stopwatch.time (fun () ->
            let r =
              Ec_core.Fast_ec.resolve ~backend f'
                (Ec_cnf.Assignment.extend a0 (Ec_cnf.Formula.num_vars f'))
            in
            sub_vars := float_of_int r.Ec_core.Fast_ec.sub_vars_count :: !sub_vars;
            sub_clauses := float_of_int r.Ec_core.Fast_ec.sub_clauses_count :: !sub_clauses;
            if r.Ec_core.Fast_ec.solution = None then begin
              incr fallbacks;
              ignore (Ec_core.Backend.solve_response backend f')
            end)
      in
      times := elapsed :: !times
    done;
    Some
      { name = inst.spec.name;
        num_vars = inst.spec.num_vars;
        num_clauses = inst.spec.num_clauses;
        orig_s;
        avg_sub_vars = Ec_util.Stats.mean !sub_vars;
        avg_sub_clauses = Ec_util.Stats.mean !sub_clauses;
        avg_new_s = Ec_util.Stats.mean !times;
        new_norm = Ec_util.Stats.mean !times /. orig_s;
        trials = config.trials;
        fallbacks = !fallbacks }

let run ?(progress = fun _ -> ()) config =
  let results =
    Protocol.map_instances config
      (fun (idx, inst) ->
        progress ("table2: " ^ inst.Ec_instances.Registry.spec.name);
        let rng = Ec_util.Rng.create (Protocol.instance_seed config idx) in
        ( inst,
          Protocol.with_instance_span
            ~instance:inst.Ec_instances.Registry.spec.name ~stage:"table2"
            (fun () -> run_instance config rng inst) ))
      (List.mapi (fun i inst -> (i, inst)) (Protocol.instances config))
  in
  let exact_rows = ref [] and heuristic_rows = ref [] in
  List.iter
    (fun ((inst : Ec_instances.Registry.instance), row) ->
      match row with
      | None -> progress ("table2: " ^ inst.spec.name ^ " initial solve failed, skipped")
      | Some row ->
        if Protocol.is_heuristic_tier inst then heuristic_rows := row :: !heuristic_rows
        else exact_rows := row :: !exact_rows)
    results;
  { exact_rows = List.rev !exact_rows; heuristic_rows = List.rev !heuristic_rows }

let render result =
  let open Ec_util.Tablefmt in
  let t =
    create
      ~headers:
        [ ("Instance", Left); ("#Vars", Right); ("#Clauses", Right);
          ("Orig. Runtime (s)", Right); ("Ave. #Vars/Clauses", Right);
          ("New Runtime (s)", Right); ("N.R.", Right); ("fallbacks", Right) ]
  in
  let add_tier rows =
    List.iter
      (fun r ->
        add_row t
          [ r.name; cell_int r.num_vars; cell_int r.num_clauses;
            cell_float ~decimals:4 r.orig_s;
            Printf.sprintf "%.1f/%.1f" r.avg_sub_vars r.avg_sub_clauses;
            cell_float ~decimals:4 r.avg_new_s;
            cell_float ~decimals:4 r.new_norm;
            Printf.sprintf "%d/%d" r.fallbacks r.trials ])
      rows;
    add_separator t;
    let mean f = Ec_util.Stats.mean (List.map f rows) in
    let med f = Ec_util.Stats.median (List.map f rows) in
    add_row t
      [ "average"; "-"; "-"; cell_float ~decimals:4 (mean (fun r -> r.orig_s));
        Printf.sprintf "%.1f/%.1f" (mean (fun r -> r.avg_sub_vars))
          (mean (fun r -> r.avg_sub_clauses));
        cell_float ~decimals:4 (mean (fun r -> r.avg_new_s));
        cell_float ~decimals:4 (mean (fun r -> r.new_norm)); "" ];
    add_row t
      [ "median"; "-"; "-"; cell_float ~decimals:4 (med (fun r -> r.orig_s));
        Printf.sprintf "%.1f/%.1f" (med (fun r -> r.avg_sub_vars))
          (med (fun r -> r.avg_sub_clauses));
        cell_float ~decimals:4 (med (fun r -> r.avg_new_s));
        cell_float ~decimals:4 (med (fun r -> r.new_norm)); "" ];
    add_separator t
  in
  add_tier result.exact_rows;
  if result.heuristic_rows <> [] then add_tier result.heuristic_rows;
  "Table 2: Fast EC on SAT (cf. paper Table 2)\n" ^ render t
