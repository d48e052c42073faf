type preserving_choice = Tiered | Forced_ilp | Forced_maxsat

type config = {
  scale : float;
  trials : int;
  seed : int;
  budget : Ec_util.Budget.t;
  include_large : bool;
  enabled_initial : bool;
  jobs : int;
  preserving : preserving_choice;
}

let default_config =
  { scale = 0.15;
    trials = 10;
    seed = 20020610; (* DAC 2002 opened June 10 *)
    budget = Ec_util.Budget.create ~time_s:30.0 ~nodes:5_000_000 ();
    include_large = true;
    enabled_initial = true;
    jobs = 1;
    preserving = Tiered }

let paper_config =
  { scale = 1.0;
    trials = 10;
    seed = 20020610;
    budget = Ec_util.Budget.unlimited;
    include_large = true;
    enabled_initial = true;
    jobs = 1;
    preserving = Tiered }

let bnb_options config =
  { Ec_ilpsolver.Bnb.default_options with budget = config.budget }

let heuristic_options config =
  { Ec_ilpsolver.Heuristic.default_options with
    seed = config.seed;
    stop_at_first_feasible = true;
    budget = config.budget }

let instances config =
  let suite =
    if config.include_large then Ec_instances.Registry.paper_suite
    else Ec_instances.Registry.small_suite
  in
  List.map
    (fun spec -> Ec_instances.Registry.build (Ec_instances.Registry.scale config.scale spec))
    suite

let is_heuristic_tier (inst : Ec_instances.Registry.instance) =
  inst.spec.tier = Ec_instances.Registry.Heuristic

(* Batch parallelism: table rows are independent, so instances fan out
   over a domain pool when the config asks for more than one job; at
   [jobs <= 1] they run in order on the calling domain.  Results
   preserve input order either way. *)
let map_instances config f xs =
  if config.jobs <= 1 then List.map f xs
  else Ec_util.Pool.with_pool config.jobs (fun pool -> Ec_util.Pool.map_list pool f xs)

(* Deterministic per-instance RNG stream: derived from the config seed
   and the instance's position, so a table's change scripts do not
   depend on [jobs] or on completion order. *)
let instance_seed config idx = config.seed lxor (0x9E3779B9 * (idx + 1))

(* --- observability ------------------------------------------------ *)

(* Every table wraps each instance's whole workload (initial solve,
   change trials, re-solves) in one of these spans; the rollup groups
   them by the "instance" argument, which is how `ecsat tables
   --trace` reports per-instance totals. *)
let with_instance_span ~instance ~stage f =
  Ec_util.Trace.span ~cat:"table"
    ~args:[ ("instance", instance); ("stage", stage) ]
    "table.instance" f

let instance_rollup () =
  Ec_util.Trace.rollup
    ~key:(fun ev ->
      if ev.Ec_util.Trace.ev_name = "table.instance" then
        match (Ec_util.Trace.arg ev "instance", Ec_util.Trace.arg ev "stage") with
        | Some i, Some s -> Some (s ^ "/" ^ i)
        | Some i, None -> Some i
        | None, _ -> None
      else None)
    ()

type timed_solve = {
  assignment : Ec_cnf.Assignment.t;
  time_s : float;
  certified : bool;
}

let decode_timed formula enc solve =
  let solution, elapsed = Ec_util.Stopwatch.time solve in
  match Ec_core.Encode.decode enc solution with
  | Some a ->
    let certified =
      match Ec_core.Certify.check_model formula a with Ok () -> true | Error _ -> false
    in
    Some { assignment = a; time_s = elapsed; certified }
  | None -> None

let initial_solve config (inst : Ec_instances.Registry.instance) =
  Ec_util.Trace.span ~cat:"table"
    ~args:[ ("instance", inst.spec.name) ]
    "protocol.initial_solve"
  @@ fun () ->
  let enc = Ec_core.Encode.of_formula inst.formula in
  if config.enabled_initial then
    ignore (Ec_core.Enabling.add Ec_core.Enabling.Constraints enc);
  let model = Ec_core.Encode.model enc in
  let result =
    if config.enabled_initial then
      (* Decision mode on the constrained model: any point is an
         enabled solution; optimality of the cover is not the object of
         Tables 2/3.  The exact engine serves both tiers here — the
         min-conflicts heuristic cannot navigate the flexibility rows
         (see EXPERIMENTS.md). *)
      decode_timed inst.formula enc (fun () ->
          (Ec_ilpsolver.Bnb.solve_decision_response ~options:(bnb_options config) model)
            .Ec_ilpsolver.Bnb.solution)
    else if is_heuristic_tier inst then
      decode_timed inst.formula enc (fun () ->
          (Ec_ilpsolver.Heuristic.solve_response ~options:(heuristic_options config) model)
            .Ec_ilpsolver.Heuristic.solution)
    else
      decode_timed inst.formula enc (fun () ->
          (Ec_ilpsolver.Bnb.solve_response ~options:(bnb_options config) model)
            .Ec_ilpsolver.Bnb.solution)
  in
  (* Note: no DC-recovery pass here.  Releasing variables concentrates
     each clause's satisfaction in fewer variables, which inflates the
     fast-EC cone; §6 prescribes DC recovery after loosening changes,
     not on the initial solution. *)
  result
