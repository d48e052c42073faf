(* Benchmark harness: regenerates every table of the paper's
   evaluation, runs one Bechamel micro-benchmark group per table, and
   reports the ablations called out in DESIGN.md §6.

   Usage:
     dune exec bench/main.exe                    # everything, scaled defaults
     dune exec bench/main.exe -- --table 2       # one table only
     dune exec bench/main.exe -- --scale 0.3     # bigger instances
     dune exec bench/main.exe -- --trials 10     # more trials per instance
     dune exec bench/main.exe -- --paper         # full paper sizes (hours)
     dune exec bench/main.exe -- --skip-micro --skip-ablations
     dune exec bench/main.exe -- --table 2 --jobs 4
         # portfolio mode: time the table at jobs=1 vs jobs=4, race the
         # engine portfolio over the suite, write BENCH_portfolio.json
     dune exec bench/main.exe -- --trace TRACE.json --metrics METRICS.json
         # record solver spans (Chrome trace-event JSON) and a metrics
         # snapshot alongside whatever else the run does
     dune exec bench/main.exe -- --maxsat
         # preserving-EC engine shootout: core-guided MaxSAT vs the
         # exact ILP objective vs the rebuild-per-probe iterative ILP
         # on Table 3 trials, compared by deterministic work counters;
         # writes BENCH_maxsat.json *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ---------------- argument parsing ---------------- *)

type args = {
  mutable table : int option;
  mutable scale : float;
  mutable trials : int;
  mutable paper : bool;
  mutable skip_micro : bool;
  mutable skip_ablations : bool;
  mutable skip_tables : bool;
  mutable jobs : int;
  mutable trace : string option;
  mutable metrics : string option;
  mutable maxsat : bool;
  mutable out : string option;
      (* overrides the default BENCH_*.json artifact path *)
  mutable matrix : bool;
  mutable store : string;
  mutable commit : string option;
  mutable no_gate : bool;
  mutable matrix_scales : int list;
  mutable matrix_engines : string list;  (* config strings; [] = defaults *)
}

(* Same convention as ecsat's --trace/--metrics validation: a sink
   that cannot be written is a usage error caught before any solving,
   diagnostic on stderr, exit 2. *)
let check_sink flag = function
  | None -> ()
  | Some path ->
    (try close_out (open_out path)
     with Sys_error msg ->
       Printf.eprintf "bench: %s expects a writable path: %s\n" flag msg;
       exit 2)

(* Numeric flags follow ecsat's [check_jobs] convention: a malformed or
   out-of-range value is a usage error caught before any work runs,
   diagnostic on stderr naming the flag, exit 2. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let int_flag flag ~lo ~hi s =
  match int_of_string_opt s with
  | Some n when n >= lo && n <= hi -> n
  | Some n when hi = max_int -> usage_error "%s must be >= %d (got %d)" flag lo n
  | Some n -> usage_error "%s must be in %d..%d (got %d)" flag lo hi n
  | None -> usage_error "%s expects an integer, got %S" flag s

let parse_args () =
  let a =
    { table = None; scale = Ec_harness.Protocol.default_config.scale; trials = 5;
      paper = false; skip_micro = false; skip_ablations = false; skip_tables = false;
      jobs = 1; trace = None; metrics = None; maxsat = false; out = None;
      matrix = false; store = "bench/results.jsonl"; commit = None; no_gate = false;
      matrix_scales = [ 24; 48 ]; matrix_engines = [] }
  in
  let rec go = function
    | [] -> ()
    | "--table" :: n :: rest | "-t" :: n :: rest ->
      a.table <- Some (int_flag "--table" ~lo:1 ~hi:3 n);
      go rest
    | "--scale" :: s :: rest ->
      (match float_of_string_opt s with
      | Some x when x > 0.0 && Float.is_finite x -> a.scale <- x
      | Some _ | None -> usage_error "--scale expects a positive number, got %S" s);
      go rest
    | "--trials" :: n :: rest ->
      a.trials <- int_flag "--trials" ~lo:1 ~hi:max_int n;
      go rest
    | "--jobs" :: n :: rest | "-j" :: n :: rest ->
      a.jobs <- int_flag "--jobs" ~lo:1 ~hi:max_int n;
      go rest
    | "--trace" :: path :: rest ->
      a.trace <- Some path;
      go rest
    | "--metrics" :: path :: rest ->
      a.metrics <- Some path;
      go rest
    | "--paper" :: rest ->
      a.paper <- true;
      go rest
    | "--skip-micro" :: rest ->
      a.skip_micro <- true;
      go rest
    | "--skip-ablations" :: rest ->
      a.skip_ablations <- true;
      go rest
    | "--skip-tables" :: rest ->
      a.skip_tables <- true;
      go rest
    | "--maxsat" :: rest ->
      a.maxsat <- true;
      go rest
    | "--out" :: path :: rest ->
      a.out <- Some path;
      go rest
    | "--matrix" :: rest ->
      a.matrix <- true;
      go rest
    | "--store" :: path :: rest ->
      a.store <- path;
      go rest
    | "--commit" :: c :: rest ->
      a.commit <- Some c;
      go rest
    | "--no-gate" :: rest ->
      a.no_gate <- true;
      go rest
    | "--matrix-scales" :: s :: rest ->
      (try
         a.matrix_scales <-
           String.split_on_char ',' s |> List.map String.trim
           |> List.filter (fun x -> x <> "")
           |> List.map int_of_string
       with Failure _ ->
         usage_error "--matrix-scales expects a comma-separated int list, got %S" s);
      if a.matrix_scales = [] then usage_error "--matrix-scales expects at least one scale";
      go rest
    | "--matrix-engine" :: spec :: rest ->
      (match Ec_core.Engine_config.parse spec with
      | Ok _ -> a.matrix_engines <- a.matrix_engines @ [ spec ]
      | Error e ->
        Printf.eprintf "bench: --matrix-engine: %s\n" e;
        exit 2);
      go rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  check_sink "--trace" a.trace;
  check_sink "--metrics" a.metrics;
  check_sink "--out" a.out;
  (* the store is append-only: probe writability without truncating *)
  (if a.matrix then
     try close_out (open_out_gen [ Open_append; Open_creat ] 0o644 a.store)
     with Sys_error msg ->
       Printf.eprintf "bench: --store expects a writable path: %s\n" msg;
       exit 2);
  a

let config_of args =
  if args.paper then { Ec_harness.Protocol.paper_config with jobs = args.jobs }
  else
    { Ec_harness.Protocol.default_config with
      scale = args.scale;
      trials = args.trials;
      jobs = args.jobs;
      (* keep the default end-to-end run in the ten-minute range *)
      budget = Ec_util.Budget.create ~time_s:15.0 ~nodes:5_000_000 () }

(* ---------------- paper tables ---------------- *)

let run_tables args config =
  let progress s = Printf.eprintf "  [%s]\n%!" s in
  let wanted n = match args.table with None -> true | Some m -> m = n in
  if wanted 1 then begin
    section "Table 1 (paper Table 1: enabling EC)";
    print_endline (Ec_harness.Table1.render (Ec_harness.Table1.run ~progress config))
  end;
  if wanted 2 then begin
    section "Table 2 (paper Table 2: fast EC)";
    print_endline (Ec_harness.Table2.render (Ec_harness.Table2.run ~progress config))
  end;
  if wanted 3 then begin
    section "Table 3 (paper Table 3: preserving EC)";
    print_endline (Ec_harness.Table3.render (Ec_harness.Table3.run ~progress config))
  end

(* ---------------- portfolio benchmark ---------------- *)

(* With --jobs N > 1: time each requested table at jobs=1 and jobs=N,
   race the portfolio over the registry suite for an engine-win
   histogram, and leave the numbers in BENCH_portfolio.json so future
   changes have a perf trajectory to regress against. *)
let run_portfolio args config =
  section (Printf.sprintf "Portfolio (--jobs %d)" args.jobs);
  let cores = Domain.recommended_domain_count () in
  Printf.printf "  recommended domain count on this machine: %d\n%!" cores;
  let tables = match args.table with None -> [ 1; 2; 3 ] | Some t -> [ t ] in
  let time_table n jobs =
    let cfg = { config with Ec_harness.Protocol.jobs } in
    let progress _ = () in
    snd
      (Ec_util.Stopwatch.time (fun () ->
           match n with
           | 1 -> ignore (Ec_harness.Table1.run ~progress cfg)
           | 2 -> ignore (Ec_harness.Table2.run ~progress cfg)
           | 3 -> ignore (Ec_harness.Table3.run ~progress cfg)
           | _ -> ()))
  in
  let rows =
    List.map
      (fun n ->
        let t_seq = time_table n 1 in
        let t_par = time_table n args.jobs in
        Printf.printf "  table %d: jobs 1 %8.3fs — jobs %d %8.3fs — speedup x%.2f\n%!" n
          t_seq args.jobs t_par
          (if t_par > 0.0 then t_seq /. t_par else nan);
        (n, t_seq, t_par))
      tables
  in
  Ec_core.Backend.reset_wins ();
  let racers = Ec_core.Backend.default_portfolio ~jobs:args.jobs () in
  List.iter
    (fun (inst : Ec_instances.Registry.instance) ->
      ignore
        (Ec_core.Backend.solve_portfolio ~budget:config.Ec_harness.Protocol.budget racers
           inst.formula))
    (Ec_harness.Protocol.instances config);
  let wins = Ec_core.Backend.wins () in
  Printf.printf "  engine wins over the registry suite: %s\n"
    (String.concat ", " (List.map (fun (e, n) -> Printf.sprintf "%s=%d" e n) wins));
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" args.jobs);
  Buffer.add_string buf (Printf.sprintf "  \"cores\": %d,\n" cores);
  (* cores_online is what CI keys its speedup gates on: on a 1-core
     container a jobs>1 run has no parallelism underneath and the
     speedup column is noise, so the gate must skip itself. *)
  Buffer.add_string buf (Printf.sprintf "  \"cores_online\": %d,\n" cores);
  Buffer.add_string buf
    (Printf.sprintf "  \"scale\": %g,\n  \"trials\": %d,\n"
       config.Ec_harness.Protocol.scale config.trials);
  Buffer.add_string buf "  \"tables\": [\n";
  List.iteri
    (fun i (n, t_seq, t_par) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"table\": %d, \"jobs1_s\": %.6f, \"jobsN_s\": %.6f, \"speedup\": %.4f}%s\n"
           n t_seq t_par
           (if t_par > 0.0 then t_seq /. t_par else nan)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"engine_wins\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map (fun (e, n) -> Printf.sprintf "\"%s\": %d" e n) wins));
  Buffer.add_string buf "}\n}\n";
  let out = Option.value args.out ~default:"BENCH_portfolio.json" in
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  wrote %s\n" out

(* ---------------- core-guided MaxSAT shootout ---------------- *)

(* One Table 3 trial solved by three exact engines, compared by the
   deterministic work counters of Preserving.work — the currency that
   is meaningful on a 1-core container where wall clock is not:

   - Sat_maxsat: the core-guided engine, one incremental session;
   - Ilp_objective: the paper's §7 model, one B&B solve (the optimum
     reference — every trial must reach the same certified optimum);
   - Ilp_iterative: the rebuild-everything baseline — the same
     objective probed as repeated decision ILPs, the whole model
     re-encoded per probe.

   Acceptance gate (checked here, asserted by bench/ci.sh): same
   optima everywhere, >= 5x fewer clauses/rows encoded than the
   iterative baseline in aggregate, and strictly fewer solver
   conflicts (CDCL conflicts vs the B&B's propagation dead-ends). *)
type maxsat_row = {
  x_instance : string;
  x_trial : int;
  x_pres_max : int;
  x_pres_ilp : int;
  x_pres_iter : int;
  x_opt_all : bool;
  x_calls_max : int;
  x_cores : int;
  x_enc_max : int;
  x_conf_max : int;
  x_probes_iter : int;
  x_enc_iter : int;
  x_conf_iter : int;
  x_nodes_iter : int;
}

let run_maxsat args config =
  section "Core-guided MaxSAT vs repeated ILP (Table 3 trials)";
  ignore args;
  let instances =
    List.filter
      (fun i -> not (Ec_harness.Protocol.is_heuristic_tier i))
      (Ec_harness.Protocol.instances config)
  in
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
  let budget = config.Ec_harness.Protocol.budget in
  let rows = ref [] and dropped = ref 0 in
  List.iter
    (fun (inst : Ec_instances.Registry.instance) ->
      match Ec_harness.Protocol.initial_solve config inst with
      | None | Some { Ec_harness.Protocol.certified = false; _ } ->
        Printf.eprintf "  [%s: no certified initial solution, skipped]\n%!"
          inst.spec.name
      | Some { Ec_harness.Protocol.assignment = a0; _ } ->
        let rng = Ec_util.Rng.create (config.Ec_harness.Protocol.seed + 17) in
        for trial = 1 to config.trials do
          (* Heavier change script than Table 3's default: enough
             tightening that the trials break a meaningful number of
             old values — with only 2-3 disagreements every engine is
             trivially cheap and the work comparison measures noise. *)
          let script =
            Ec_cnf.Change.preserving_ec_script ~satisfiable rng inst.formula
              ~reference:a0 ~add_vars:8 ~del_vars:8 ~add_clauses:14 ~del_clauses:14
              ~clause_width:3
          in
          let f' = Ec_cnf.Change.apply_script inst.formula script in
          let reference =
            Ec_cnf.Assignment.extend a0 (Ec_cnf.Formula.num_vars f')
          in
          let resolve engine =
            Ec_core.Preserving.resolve ~engine ~budget f' ~reference
          in
          let r_max =
            resolve
              (Ec_core.Preserving.Sat_maxsat
                 { Ec_sat.Maxsat.default_options with budget })
          in
          let r_ilp =
            resolve (Ec_core.Preserving.Ilp_objective (Ec_harness.Protocol.bnb_options config))
          in
          let r_iter =
            resolve (Ec_core.Preserving.Ilp_iterative (Ec_harness.Protocol.bnb_options config))
          in
          let open Ec_core.Preserving in
          if r_max.solution = None || r_ilp.solution = None || r_iter.solution = None
          then incr dropped (* a solve failed within caps: not data *)
          else
            rows :=
              { x_instance = inst.spec.name;
                x_trial = trial;
                x_pres_max = r_max.preserved;
                x_pres_ilp = r_ilp.preserved;
                x_pres_iter = r_iter.preserved;
                x_opt_all = r_max.optimal && r_ilp.optimal && r_iter.optimal;
                x_calls_max = r_max.work.probes;
                x_cores = r_max.work.cores;
                x_enc_max = r_max.work.clauses_encoded;
                x_conf_max = r_max.counters.Ec_util.Budget.spent_conflicts;
                x_probes_iter = r_iter.work.probes;
                x_enc_iter = r_iter.work.clauses_encoded;
                x_conf_iter = r_iter.counters.Ec_util.Budget.spent_conflicts;
                x_nodes_iter = r_iter.counters.Ec_util.Budget.spent_nodes }
              :: !rows
        done;
        Printf.eprintf "  [%s: done]\n%!" inst.spec.name)
    instances;
  let rows = List.rev !rows in
  if !dropped > 0 then
    Printf.printf "  dropped %d trial(s) where an engine failed within caps\n" !dropped;
  let tot f = List.fold_left (fun s r -> s + f r) 0 rows in
  let agree =
    List.for_all
      (fun r -> r.x_opt_all && r.x_pres_max = r.x_pres_ilp && r.x_pres_ilp = r.x_pres_iter)
      rows
  in
  let enc_max = tot (fun r -> r.x_enc_max)
  and enc_iter = tot (fun r -> r.x_enc_iter)
  and conf_max = tot (fun r -> r.x_conf_max)
  and conf_iter = tot (fun r -> r.x_conf_iter) in
  let ratio = if enc_max > 0 then float_of_int enc_iter /. float_of_int enc_max else nan in
  Printf.printf "  trials: %d   certified optima agree across all engines: %b\n"
    (List.length rows) agree;
  Printf.printf
    "  clauses/rows encoded: maxsat %d   repeated-ILP %d   (x%.2f re-encoding avoided)\n"
    enc_max enc_iter ratio;
  Printf.printf "  solver conflicts:     maxsat %d   repeated-ILP %d   (B&B nodes %d)\n"
    conf_max conf_iter
    (tot (fun r -> r.x_nodes_iter));
  Printf.printf "  sat calls %d, cores %d over %d trials\n"
    (tot (fun r -> r.x_calls_max)) (tot (fun r -> r.x_cores)) (List.length rows);
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"scale\": %g,\n  \"trials\": %d,\n  \"seed\": %d,\n"
       config.Ec_harness.Protocol.scale config.trials config.Ec_harness.Protocol.seed);
  Buffer.add_string buf
    (Printf.sprintf "  \"cores_online\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"instance\": \"%s\", \"trial\": %d, \"preserved\": {\"maxsat\": %d, \"ilp\": %d, \"ilp_iterative\": %d}, \"all_optimal\": %b, \"maxsat\": {\"sat_calls\": %d, \"cores\": %d, \"clauses_encoded\": %d, \"conflicts\": %d}, \"ilp_iterative\": {\"probes\": %d, \"rows_encoded\": %d, \"conflicts\": %d, \"nodes\": %d}}%s\n"
           r.x_instance r.x_trial r.x_pres_max r.x_pres_ilp r.x_pres_iter r.x_opt_all
           r.x_calls_max r.x_cores r.x_enc_max r.x_conf_max r.x_probes_iter
           r.x_enc_iter r.x_conf_iter r.x_nodes_iter
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"summary\": {\"trials\": %d, \"dropped\": %d, \"all_agree\": %b, \"maxsat_clauses_encoded\": %d, \"iterative_rows_encoded\": %d, \"encode_ratio\": %.4f, \"meets_5x_fewer_clauses\": %b, \"maxsat_conflicts\": %d, \"iterative_conflicts\": %d, \"strictly_fewer_conflicts\": %b}\n"
       (List.length rows) !dropped agree enc_max enc_iter ratio (ratio >= 5.0)
       conf_max conf_iter
       (conf_max < conf_iter));
  Buffer.add_string buf "}\n";
  let out = Option.value args.out ~default:"BENCH_maxsat.json" in
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  wrote %s\n" out

(* ---------------- benchmark matrix ---------------- *)

(* The serve scenario lives here rather than in Ec_harness.Matrix
   because the harness does not link the server: a resident session
   fed an add-only clause stream (satisfied by the planted assignment,
   so every step stays SAT), re-solved per delta.  The session owns
   its engine (a warm incremental CDCL), so the scenario only pairs
   with the default cdcl config. *)
let serve_scenario =
  Ec_harness.Matrix.custom ~name:"serve"
    ~doc:"resident serve session over an add-only clause stream (default cdcl only)"
    ~run:(fun ~engine ~scale ->
      match engine with
      | Ec_core.Engine_config.Cdcl o when o = Ec_sat.Cdcl.default_options ->
        let spec = List.hd Ec_instances.Registry.small_suite in
        let factor = float_of_int scale /. float_of_int spec.Ec_instances.Registry.num_vars in
        let inst = Ec_instances.Registry.build (Ec_instances.Registry.scale factor spec) in
        let session = Ec_server.Session.create ~name:"bench" inst.formula in
        let num_vars = Ec_cnf.Formula.num_vars inst.formula in
        let rng = Ec_util.Rng.create (spec.Ec_instances.Registry.seed lxor (17 * scale)) in
        let budget = Ec_util.Budget.create ~conflicts:500_000 ~nodes:500_000 () in
        let certified = ref 0 and retried = ref 0 and degraded = ref 0 in
        let steps = 5 in
        for _ = 1 to steps do
          let delta =
            List.init 4 (fun _ ->
                Ec_instances.Padding.anchored_clause rng ~planted:inst.planted ~num_vars
                  ~width:3)
          in
          Ec_server.Session.add_clauses session delta;
          let r = Ec_server.Session.solve ~budget session in
          if r.Ec_server.Session.certified then incr certified;
          if r.Ec_server.Session.retried then incr retried;
          if r.Ec_server.Session.degraded then incr degraded
        done;
        Some
          ( !certified = steps,
            [ ("solves", Ec_server.Session.solves session);
              ("certified", !certified);
              ("retried", !retried);
              ("degraded", !degraded) ] )
      | _ -> None)

(* Default engine list: one config string per engine.  The heuristic
   runs in first-feasible mode — its full objective-improvement mode
   burns the whole flip budget on every (satisfiable) cell for no
   extra information. *)
let default_matrix_engines =
  [ "cdcl"; "dpll"; "bnb"; "heuristic:stop_at_first_feasible=true"; "maxsat"; "simplex" ]

let run_matrix args =
  section "Benchmark matrix";
  let commit =
    match args.commit with
    | Some c -> c
    | None -> ( try Sys.getenv "ECSAT_COMMIT" with Not_found -> "dev")
  in
  let cores = Ec_harness.Matrix.cores_online () in
  Printf.printf "  commit %s, cores_online %d, store %s\n%!" commit cores args.store;
  let engine_specs =
    match args.matrix_engines with [] -> default_matrix_engines | specs -> specs
  in
  let engines =
    List.map
      (fun s ->
        match Ec_core.Engine_config.parse s with
        | Ok e -> e
        | Error e -> failwith e (* parse-validated in parse_args *))
      engine_specs
  in
  let scenarios = Ec_harness.Matrix.builtins @ [ serve_scenario ] in
  let baseline =
    match Ec_harness.Matrix.load ~path:args.store with
    | Ok cells -> cells
    | Error e ->
      Printf.eprintf "bench: cannot load results store: %s\n" e;
      exit 2
  in
  let cells =
    List.concat_map
      (fun scenario ->
        List.concat_map
          (fun engine ->
            List.filter_map
              (fun scale ->
                match Ec_harness.Matrix.run_cell ~commit scenario engine ~scale with
                | None -> None
                | Some cell ->
                  Printf.printf "  %-7s %-32s scale %3d  ok %-5b %7.3fs  %s\n%!"
                    cell.Ec_harness.Matrix.scenario cell.Ec_harness.Matrix.config
                    scale cell.Ec_harness.Matrix.ok cell.Ec_harness.Matrix.wall_s
                    (String.concat " "
                       (List.filter_map
                          (fun (k, v) -> if v = 0 then None else Some (Printf.sprintf "%s=%d" k v))
                          cell.Ec_harness.Matrix.work));
                  Some cell)
              args.matrix_scales)
          engines)
      scenarios
  in
  Printf.printf "  %d cells measured\n" (List.length cells);
  let gate_wall = cores > 1 in
  if not gate_wall then
    Printf.printf
      "  cores_online = %d <= 1: wall-time gate SKIPPED (deterministic work counters still gated)\n"
      cores;
  let verdicts =
    Ec_harness.Matrix.gate
      ~options:{ Ec_harness.Matrix.default_gate_options with gate_wall }
      ~baseline cells
  in
  let failures =
    List.filter (fun v -> not v.Ec_harness.Matrix.passed) verdicts
  in
  List.iter
    (fun v ->
      let c = v.Ec_harness.Matrix.cell in
      if not v.Ec_harness.Matrix.passed then
        Printf.printf "  GATE FAIL %s/%s@%d: %s\n" c.Ec_harness.Matrix.scenario
          c.Ec_harness.Matrix.config c.Ec_harness.Matrix.scale
          (String.concat "; " v.Ec_harness.Matrix.notes))
    verdicts;
  let without_baseline =
    List.length (List.filter (fun v -> v.Ec_harness.Matrix.baseline = None) verdicts)
  in
  Printf.printf "  gate: %d/%d cells passed (%d without baseline)\n"
    (List.length verdicts - List.length failures)
    (List.length verdicts) without_baseline;
  (match Ec_harness.Matrix.append ~path:args.store cells with
  | Ok n ->
    Printf.printf "  appended %d cells to %s (%d already stored)\n" n args.store
      (List.length cells - n)
  | Error e ->
    Printf.eprintf "bench: cannot append to results store: %s\n" e;
    exit 2);
  if failures <> [] && not args.no_gate then exit 1

(* ---------------- Bechamel micro-benchmarks ---------------- *)

(* Shared fixture: one exact-tier instance, small enough that each
   micro-benchmarked operation runs in well under a second. *)
let micro_fixture () =
  let spec = Ec_instances.Registry.scale 0.2 (Ec_instances.Registry.find "ii8a1") in
  let inst = Ec_instances.Registry.build spec in
  let cfg = { Ec_harness.Protocol.default_config with scale = 0.2 } in
  let a0 =
    match Ec_harness.Protocol.initial_solve cfg inst with
    | Some r -> r.Ec_harness.Protocol.assignment
    | None -> failwith "micro fixture: initial solve failed"
  in
  let rng = Ec_util.Rng.create 41 in
  let script =
    Ec_cnf.Change.fast_ec_script rng inst.formula ~eliminate:3 ~add:10 ~clause_width:3
  in
  let f' = Ec_cnf.Change.apply_script inst.formula script in
  let p = Ec_cnf.Assignment.extend a0 (Ec_cnf.Formula.num_vars f') in
  (inst, a0, f', p)

let bnb_capped =
  { Ec_ilpsolver.Bnb.default_options with
    budget = Ec_util.Budget.create ~time_s:5.0 ~nodes:500_000 () }

(* One Bechamel group per table. *)
let micro_tests () =
  let inst, a0, f', p = micro_fixture () in
  let open Bechamel in
  let solve_with build =
    Staged.stage (fun () ->
        let enc = build () in
        ignore
          (Ec_ilpsolver.Bnb.solve_decision_response ~options:bnb_capped
             (Ec_core.Encode.model enc)))
  in
  let t1 =
    Test.make_grouped ~name:"table1"
      [ Test.make ~name:"orig" (solve_with (fun () -> Ec_core.Encode.of_formula inst.formula));
        Test.make ~name:"enable-sc"
          (solve_with (fun () ->
               let enc = Ec_core.Encode.of_formula inst.formula in
               ignore (Ec_core.Enabling.add Ec_core.Enabling.Constraints enc);
               enc));
        Test.make ~name:"enable-of"
          (solve_with (fun () ->
               let enc = Ec_core.Encode.of_formula inst.formula in
               ignore (Ec_core.Enabling.add (Ec_core.Enabling.Objective 1.0) enc);
               enc)) ]
  in
  let t2 =
    Test.make_grouped ~name:"table2"
      [ Test.make ~name:"cone-extract"
          (Staged.stage (fun () -> ignore (Ec_core.Fast_ec.simplify f' p)));
        Test.make ~name:"cone-resolve"
          (Staged.stage (fun () ->
               ignore
                 (Ec_core.Fast_ec.resolve
                    ~backend:(Ec_core.Backend.Ilp_exact bnb_capped) f' p)));
        Test.make ~name:"full-resolve"
          (Staged.stage (fun () ->
               ignore
                 (Ec_core.Backend.solve_response (Ec_core.Backend.Ilp_exact bnb_capped) f')))
      ]
  in
  let t3 =
    Test.make_grouped ~name:"table3"
      [ Test.make ~name:"preserve-ilp"
          (Staged.stage (fun () ->
               ignore
                 (Ec_core.Preserving.resolve
                    ~engine:(Ec_core.Preserving.Ilp_objective bnb_capped) f'
                    ~reference:p)));
        Test.make ~name:"preserve-cdcl-card"
          (Staged.stage (fun () ->
               ignore
                 (Ec_core.Preserving.resolve
                    ~engine:(Ec_core.Preserving.Sat_cardinality Ec_sat.Cdcl.default_options)
                    f' ~reference:p)));
        Test.make ~name:"plain-resolve"
          (Staged.stage (fun () ->
               ignore
                 (Ec_core.Backend.solve_response (Ec_core.Backend.Ilp_exact bnb_capped) f')))
      ]
  in
  ignore a0;
  [ t1; t2; t3 ]

let run_micro () =
  section "Bechamel micro-benchmarks (one group per table)";
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:400 ~quota:(Time.second 1.5) ~kde:None () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
      List.iter
        (fun name ->
          let ols_result = Hashtbl.find results name in
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> e
            | Some _ | None -> nan
          in
          Printf.printf "  %-32s %12.1f ns/run  (r²=%s)\n" name estimate
            (match Analyze.OLS.r_square ols_result with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "n/a"))
        (List.sort compare names))
    (micro_tests ());
  print_newline ()

(* ---------------- ablations ---------------- *)

let time_runs n f =
  (* median of n runs *)
  let samples = List.init n (fun _ -> snd (Ec_util.Stopwatch.time f)) in
  Ec_util.Stats.median samples

let run_ablations args =
  section "Ablations (DESIGN.md §6)";
  let spec = Ec_instances.Registry.scale (min args.scale 0.15) (Ec_instances.Registry.find "jnh201") in
  let inst = Ec_instances.Registry.build spec in
  let enc () = Ec_core.Encode.of_formula inst.formula in

  (* A1: greedy completion in B&B (optimization mode). *)
  let t_on =
    time_runs 3 (fun () ->
        ignore
          (Ec_ilpsolver.Bnb.solve_response ~options:bnb_capped (Ec_core.Encode.model (enc ()))))
  in
  let t_off =
    time_runs 3 (fun () ->
        ignore
          (Ec_ilpsolver.Bnb.solve_response
             ~options:{ bnb_capped with greedy_completion = false }
             (Ec_core.Encode.model (enc ()))))
  in
  Printf.printf "  A1 B&B greedy completion:      on %.4fs   off %.4fs   (x%.1f)\n" t_on
    t_off (t_off /. t_on);

  (* A2: LP bounding in B&B. *)
  let t_lp =
    time_runs 3 (fun () ->
        ignore
          (Ec_ilpsolver.Bnb.solve_response
             ~options:{ bnb_capped with use_lp_bounding = true; lp_max_depth = 6 }
             (Ec_core.Encode.model (enc ()))))
  in
  Printf.printf "  A2 B&B LP bounding:            off %.4fs  on %.4fs   (x%.1f)\n" t_on t_lp
    (t_lp /. t_on);

  (* A3: branching rule. *)
  let t_first =
    time_runs 3 (fun () ->
        ignore
          (Ec_ilpsolver.Bnb.solve_response
             ~options:{ bnb_capped with branching = Ec_ilpsolver.Bnb.First_unfixed }
             (Ec_core.Encode.model (enc ()))))
  in
  Printf.printf "  A3 B&B branching:              most-constrained %.4fs  first-unfixed %.4fs\n"
    t_on t_first;

  (* A4: CDCL phase saving as a cheap preserving mechanism. *)
  let cfg = { Ec_harness.Protocol.default_config with scale = min args.scale 0.15 } in
  (match Ec_harness.Protocol.initial_solve cfg inst with
  | None -> print_endline "  A4 skipped (no initial solution)"
  | Some { Ec_harness.Protocol.assignment = a0; _ } ->
    let rng = Ec_util.Rng.create 99 in
    let script =
      Ec_cnf.Change.preserving_ec_script rng inst.formula ~reference:a0 ~add_vars:5
        ~del_vars:5 ~add_clauses:5 ~del_clauses:5 ~clause_width:3
    in
    let f' = Ec_cnf.Change.apply_script inst.formula script in
    let reference = Ec_cnf.Assignment.extend a0 (Ec_cnf.Formula.num_vars f') in
    let preserved label outcome =
      match outcome with
      | Ec_sat.Outcome.Sat a ->
        Printf.printf "  A4 %-28s preserved %5.1f%%\n" label
          (100.0 *. Ec_cnf.Assignment.preserved_fraction ~old_assignment:reference a)
      | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ ->
        Printf.printf "  A4 %-28s failed\n" label
    in
    preserved "CDCL cold start:" (Ec_sat.Cdcl.solve_response f').Ec_sat.Cdcl.outcome;
    preserved "CDCL phase-hint warm start:"
      (Ec_sat.Cdcl.solve_response
         ~options:{ Ec_sat.Cdcl.default_options with phase_hint = Some reference }
         f').Ec_sat.Cdcl.outcome;
    let r = Ec_core.Preserving.resolve f' ~reference in
    Printf.printf "  A4 %-28s preserved %5.1f%% (optimal)\n" "preserving EC:"
      (100.0 *. Ec_core.Preserving.preserved_fraction r);

    (* A5: enabled vs plain initial solution -> fast-EC cone size,
       on an instance large enough that cones do not saturate. *)
    let a5_spec =
      Ec_instances.Registry.scale (min args.scale 0.2) (Ec_instances.Registry.find "f600")
    in
    let a5_inst = Ec_instances.Registry.build a5_spec in
    let cone enabled =
      let cfg = { cfg with enabled_initial = enabled } in
      let inst = a5_inst in
      match Ec_harness.Protocol.initial_solve cfg inst with
      | None -> nan
      | Some { Ec_harness.Protocol.assignment = a; _ } ->
        let rng = Ec_util.Rng.create 4242 in
        let sizes =
          List.init 5 (fun _ ->
              let script =
                Ec_cnf.Change.fast_ec_script rng inst.formula ~eliminate:3 ~add:10
                  ~clause_width:3
              in
              let f' = Ec_cnf.Change.apply_script inst.formula script in
              let p = Ec_cnf.Assignment.extend a (Ec_cnf.Formula.num_vars f') in
              let s = Ec_core.Fast_ec.simplify f' p in
              float_of_int (List.length s.Ec_core.Fast_ec.vars))
        in
        Ec_util.Stats.mean sizes
    in
    Printf.printf "  A5 fast-EC cone (avg vars):    enabled init %.1f   plain init %.1f\n"
      (cone true) (cone false);

    (* A6: DC recovery. *)
    let total = Ec_sat.Minimize.dc_gain inst.formula reference in
    Printf.printf "  A6 DC recovery on the initial solution frees %d extra variables\n" total);

  (* A7: the second application — EC on graph coloring (paper §8's
     companion experiments).  Enabled vs plain allocations against a
     stream of edge insertions, and preserving vs scratch recolor. *)
  let rng = Ec_util.Rng.create 4007 in
  (match Ec_coloring.Graph.random_planted rng ~num_nodes:60 ~colors:7 ~edges:160 with
  | exception Invalid_argument _ -> print_endline "  A7 skipped (edge draw failed)"
  | g0, _ ->
    let opts =
      { bnb_capped with
        budget = Ec_util.Budget.create ~time_s:10.0 ~nodes:500_000 ()
      }
    in
    let solve_alloc ~enabled g =
      let enc = Ec_coloring.Encode_coloring.make g ~colors:7 in
      if enabled then Ec_coloring.Ec_ops.add_enabling enc;
      let s =
        (Ec_ilpsolver.Bnb.solve_decision_response ~options:opts
           (Ec_coloring.Encode_coloring.model enc))
          .Ec_ilpsolver.Bnb.solution
      in
      Ec_coloring.Encode_coloring.decode enc s
    in
    let run_stream alloc =
      (* 15 random edge insertions; count repairs that stayed local *)
      let rng = Ec_util.Rng.create 555 in
      let g = ref g0 and alloc = ref alloc and local = ref 0 and cones = ref 0 in
      for _ = 1 to 15 do
        let u = 1 + Ec_util.Rng.int rng 60 and w = 1 + Ec_util.Rng.int rng 60 in
        if u <> w then begin
          g := Ec_coloring.Graph.add_edge !g u w;
          let r = Ec_coloring.Ec_ops.fast_resolve ~options:opts !g ~colors:7 !alloc in
          match r.Ec_coloring.Ec_ops.coloring with
          | Some c ->
            alloc := c;
            if r.Ec_coloring.Ec_ops.cone_nodes = 0 then incr local else incr cones
          | None -> ()
        end
      done;
      (!local, !cones)
    in
    match (solve_alloc ~enabled:true g0, solve_alloc ~enabled:false g0) with
    | Some enabled_alloc, Some plain_alloc ->
      let l1, c1 = run_stream enabled_alloc in
      let l2, c2 = run_stream plain_alloc in
      Printf.printf
        "  A7 coloring EC, 15 edge inserts: enabled init %d local/%d cone — plain init %d local/%d cone\n"
        l1 c1 l2 c2
    | _ -> print_endline "  A7 skipped (initial allocation failed)");

  (* A8: incremental CDCL sessions vs fast-EC cones vs scratch solves
     across a stream of clause additions. *)
  let a8_spec =
    Ec_instances.Registry.scale (min args.scale 0.25) (Ec_instances.Registry.find "jnh1")
  in
  let a8 = Ec_instances.Registry.build a8_spec in
  (match (Ec_sat.Cdcl.solve_response a8.formula).Ec_sat.Cdcl.outcome with
  | Ec_sat.Outcome.Sat a0 ->
    let rng = Ec_util.Rng.create 777 in
    let additions =
      List.init 25 (fun _ ->
          Ec_cnf.Change.random_clause_satisfied_by rng a8.planted
            ~num_vars:(Ec_cnf.Formula.num_vars a8.formula) ~width:3)
    in
    (* scratch: re-solve the growing formula every step *)
    let (), t_scratch =
      Ec_util.Stopwatch.time (fun () ->
          let f = ref a8.formula in
          List.iter
            (fun c ->
              f := Ec_cnf.Formula.add_clause !f c;
              ignore (Ec_sat.Cdcl.solve_response !f))
            additions)
    in
    (* incremental session *)
    let (), t_inc =
      Ec_util.Stopwatch.time (fun () ->
          let s = Ec_sat.Incremental.create a8.formula in
          List.iter
            (fun c ->
              Ec_sat.Incremental.add_clause s c;
              ignore (Ec_sat.Incremental.solve s))
            additions)
    in
    (* fast-EC cones *)
    let (), t_fast =
      Ec_util.Stopwatch.time (fun () ->
          let f = ref a8.formula and sol = ref a0 in
          List.iter
            (fun c ->
              f := Ec_cnf.Formula.add_clause !f c;
              let r = Ec_core.Fast_ec.resolve ~backend:Ec_core.Backend.cdcl !f !sol in
              match r.Ec_core.Fast_ec.solution with
              | Some s -> sol := s
              | None -> ())
            additions)
    in
    Printf.printf
      "  A8 25 clause adds on %s: scratch %.4fs — incremental session %.4fs — fast-EC cones %.4fs\n"
      a8_spec.name t_scratch t_inc t_fast
  | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> print_endline "  A8 skipped");

  (* A9: CNF preprocessing in front of CDCL. *)
  let a9 = Ec_instances.Registry.build
      (Ec_instances.Registry.scale (min args.scale 0.3) (Ec_instances.Registry.find "ii8b2"))
  in
  let t_plain =
    time_runs 3 (fun () -> ignore (Ec_sat.Cdcl.solve_response a9.formula))
  in
  let t_pre =
    time_runs 3 (fun () -> ignore (Ec_sat.Preprocess.solve_with_preprocessing a9.formula))
  in
  (match Ec_sat.Preprocess.simplify a9.formula with
  | `Simplified r ->
    Printf.printf
      "  A9 preprocessing on %s: %d->%d clauses (%d fixed, %d eliminated); cdcl %.4fs vs pre+cdcl %.4fs\n"
      a9.spec.name
      (Ec_cnf.Formula.num_clauses a9.formula)
      (Ec_cnf.Formula.num_clauses r.Ec_sat.Preprocess.formula)
      (List.length r.Ec_sat.Preprocess.fixed)
      (List.length r.Ec_sat.Preprocess.eliminated)
      t_plain t_pre
  | `Unsat -> print_endline "  A9: generator produced unsat?!");
  print_newline ()

(* ---------------- main ---------------- *)

let () =
  let args = parse_args () in
  let config = config_of args in
  if args.trace <> None then Ec_util.Trace.enable ();
  if args.metrics <> None then Ec_util.Metrics.enable ();
  Printf.printf
    "ILP-based engineering change — bench harness (scale %.2f, %d trials%s)\n"
    config.Ec_harness.Protocol.scale config.trials
    (if args.paper then ", PAPER-SCALE RUN" else "");
  if args.matrix then run_matrix args
  else if args.jobs > 1 then run_portfolio args config
  else begin
    if not args.skip_tables then run_tables args config;
    if args.maxsat then run_maxsat args config;
    if not args.skip_micro then run_micro ();
    if not args.skip_ablations then run_ablations args
  end;
  (match args.trace with
  | Some path ->
    Ec_util.Trace.write_chrome path;
    Printf.printf "wrote %s\n" path
  | None -> ());
  match args.metrics with
  | Some path ->
    Ec_util.Metrics.write path;
    Printf.printf "wrote %s\n" path
  | None -> ()
