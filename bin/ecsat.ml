(* ecsat — command-line front end for the ILP-based engineering-change
   library.

     ecsat solve      file.cnf                 solve a DIMACS instance
     ecsat enable     file.cnf                 solve with enabling EC
     ecsat fast       file.cnf --add ...       apply changes, fast-EC re-solve
     ecsat preserve   file.cnf --add ...       apply changes, preserving re-solve
     ecsat preprocess file.cnf -o out.cnf      simplify an instance
     ecsat gen        par8-1-c -o out.cnf      regenerate a benchmark instance
     ecsat tables     --table 2 --scale 0.2    regenerate the paper's tables
     ecsat serve      --jobs 2                 run the EC daemon

   Each solve runs one engine on the calling domain; only [tables] and
   [serve] take [--jobs], to spread instances or sessions over a
   domain pool. *)

open Cmdliner

(* ---- shared arguments ---- *)

let cnf_file =
  let doc = "DIMACS CNF input file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let backend_conv =
  let parse = function
    | "cdcl" -> Ok Ec_core.Backend.cdcl
    | "ilp" | "bnb" | "ilp-bnb" -> Ok Ec_core.Backend.ilp_exact
    | "heuristic" | "ilp-heuristic" -> Ok Ec_core.Backend.ilp_heuristic
    | "maxsat" -> Ok Ec_core.Backend.maxsat
    | s ->
      Error (`Msg (Printf.sprintf "unknown backend %S (cdcl|ilp|heuristic|maxsat)" s))
  in
  let print fmt b = Format.pp_print_string fmt (Ec_core.Backend.name b) in
  Arg.conv (parse, print)

let backend =
  let doc =
    "Solver backend: $(b,cdcl), $(b,ilp) (alias $(b,bnb)), $(b,heuristic) or \
     $(b,maxsat)."
  in
  Arg.(value & opt backend_conv Ec_core.Backend.cdcl & info [ "backend"; "b" ] ~doc)

let engine_opt_arg =
  let doc =
    "Tune the selected backend: one $(b,KEY=VAL) pair from the engine's config \
     spec (e.g. $(b,--engine-opt var_decay=0.85) for cdcl, \
     $(b,--engine-opt branching=first-unfixed) for ilp).  Repeatable; unknown \
     keys are rejected before any file is read.  The resulting canonical \
     config and its digest are echoed as a comment line, so any run can be \
     reproduced and matched against the benchmark matrix's results store."
  in
  Arg.(value & opt_all string [] & info [ "engine-opt" ] ~docv:"KEY=VAL" ~doc)

(* [--engine-opt] is validated before any file is read — the
   [check_jobs] convention: an unknown key or malformed value fails in
   milliseconds with a diagnostic on stderr and exit 2. *)
let apply_engine_opts backend opts =
  if opts = [] then backend
  else
    match Ec_core.Engine_config.apply_all (Ec_core.Backend.to_config backend) opts with
    | Error e ->
      Printf.eprintf "ecsat: --engine-opt: %s\n" e;
      exit 2
    | Ok c -> (
      match Ec_core.Backend.of_config c with
      | Ok b -> b
      | Error e ->
        Printf.eprintf "ecsat: --engine-opt: %s\n" e;
        exit 2)

(* Echoed by every command that accepts [--engine-opt]: the canonical
   config string reproduces the run, the digest keys it into the
   benchmark matrix's results store. *)
let print_engine_config backend =
  let c = Ec_core.Backend.to_config backend in
  Printf.printf "c engine-config=%s digest=%s\n" (Ec_core.Engine_config.show c)
    (Ec_core.Engine_config.digest c)

let add_clauses_arg =
  let doc =
    "Engineering change: add a clause, given as comma-separated DIMACS literals \
     (e.g. $(b,--add 1,-3,5)).  Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "add" ] ~docv:"LITS" ~doc)

let eliminate_arg =
  let doc = "Engineering change: eliminate a variable.  Repeatable." in
  Arg.(value & opt_all int [] & info [ "eliminate"; "e" ] ~docv:"VAR" ~doc)

(* [--add] is parsed before any file is read, the [check_jobs]
   convention: a malformed clause fails with a diagnostic on stderr and
   exit 2.  A literal above the formula's variable count is legal — an
   added clause may introduce variables. *)
let parse_clause spec =
  let reject why =
    Printf.eprintf "ecsat: --add %S: %s\n" spec why;
    exit 2
  in
  let lit s =
    match int_of_string_opt (String.trim s) with
    | Some i when i <> 0 -> Ec_cnf.Lit.of_int i
    | Some _ | None -> reject (Printf.sprintf "%S is not a non-zero integer literal" s)
  in
  let lits =
    String.split_on_char ',' spec |> List.filter (fun s -> String.trim s <> "") |> List.map lit
  in
  match Ec_cnf.Clause.make lits with
  | c -> c
  | exception Ec_cnf.Clause.Tautology -> reject "a variable occurs in both phases"

(* [--eliminate] names a variable of the loaded formula: checked once
   the file is read, before any solve, with the same convention.  The
   eliminations apply before the added clauses (see [changes_of]). *)
let check_eliminate f eliminate =
  let n = Ec_cnf.Formula.num_vars f in
  List.iter
    (fun v ->
      if v < 1 || v > n then begin
        Printf.eprintf "ecsat: --eliminate expects a variable in 1..%d (got %d)\n" n v;
        exit 2
      end)
    eliminate

let changes_of added eliminate =
  List.map (fun v -> Ec_cnf.Change.Eliminate_var v) eliminate
  @ List.map (fun c -> Ec_cnf.Change.Add_clause c) added

let timeout_arg =
  let doc = "Wall-clock budget in seconds; on exhaustion the solver reports UNKNOWN." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS" ~doc)

let conflicts_arg =
  let doc = "Conflict budget (CDCL conflicts / B&B pruning conflicts)." in
  Arg.(value & opt (some int) None & info [ "conflicts" ] ~docv:"N" ~doc)

let budget_of timeout conflicts = Ec_util.Budget.create ?time_s:timeout ?conflicts ()

let jobs_arg =
  let doc =
    "Parallelism (OCaml domains).  $(b,tables): fan instances over a \
     $(docv)-wide domain pool; rows do not depend on $(docv).  $(b,serve): \
     run session work on $(docv) pool domains.  1 (the default) runs on the \
     calling domain."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* [--jobs] must be a positive domain count — 0 or a negative value
   would mean an empty pool.  Rejected the same way as a malformed
   ECSAT_FAULTS plan: diagnostic on stderr, exit 2. *)
let check_jobs jobs =
  if jobs <= 0 then begin
    Printf.eprintf "ecsat: --jobs must be >= 1 (got %d)\n" jobs;
    exit 2
  end

(* SIGTERM/SIGINT during a one-shot command raise the process-wide
   budget interrupt line ([Budget.interrupt]): every running gauge —
   including harness workers, whose budgets the handler never sees —
   observes it at its next check, the
   engines return [Unknown Cancelled], and the command exits through
   its normal partial-results path ("c stopped: cancelled" + "s
   UNKNOWN", or the tables rendered with the rows finished so far)
   instead of dying mid-write. *)
let install_interrupt_handlers () =
  let handler = Sys.Signal_handle (fun _signum -> Ec_util.Budget.interrupt ()) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler

(* ---- observability (--trace / --metrics) ---- *)

let trace_arg =
  let doc =
    "Record solver spans and write them as Chrome trace-event JSON to $(docv) \
     (load in $(b,chrome://tracing) or $(b,ui.perfetto.dev); one track per \
     domain).  Recording costs one atomic load per site when absent."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Record solver metrics (counters, gauges, histograms) and write a JSON \
     snapshot to $(docv) at exit."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* An observability sink is validated before any solving, the same
   convention as [check_jobs]: a run that cannot deliver its artifacts
   must fail in milliseconds with exit 2, not raise after the solve. *)
let check_sink flag = function
  | None -> ()
  | Some path ->
    (try close_out (open_out path)
     with Sys_error msg ->
       Printf.eprintf "ecsat: %s expects a writable path: %s\n" flag msg;
       exit 2)

(* Arm the requested recorders around [run], then flush each sink.
   The exit code of [run] passes through untouched — observability
   must never change what the user's scripts see. *)
let with_observability ~trace ~metrics run =
  check_sink "--trace" trace;
  check_sink "--metrics" metrics;
  if trace <> None then Ec_util.Trace.enable ();
  if metrics <> None then Ec_util.Metrics.enable ();
  let code = run () in
  Option.iter Ec_util.Trace.write_chrome trace;
  Option.iter Ec_util.Metrics.write metrics;
  code

let load file = Ec_cnf.Dimacs.parse_file file

let verify_arg =
  let doc =
    "Re-certify the final model clause by clause against the input formula \
     (an independent check, not the solver's own bookkeeping).  A model that \
     fails certification exits with code 3 — distinct from 10/20/0, so \
     scripts can tell a wrong answer from an honest unknown."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

(* Exit code for a certification failure under --verify.  Deliberately
   none of the SAT-competition codes (10/20/0): a produced-but-wrong
   model is a different event than any verdict. *)
let cert_failure_exit = 3

(* SAT-competition exit codes: 10 = satisfiable, 20 = unsatisfiable,
   0 = unknown (e.g. out of budget). *)
let report_model ?(verify = false) f a =
  if verify then
    match Ec_core.Certify.check_model f a with
    | Error detail ->
      Printf.printf "c CERTIFICATION FAILED: %s\n" detail;
      print_endline "s UNKNOWN";
      cert_failure_exit
    | Ok () ->
      Printf.printf "c certified: model re-checked against all %d clauses\n"
        (Ec_cnf.Formula.num_clauses f);
      print_endline "s SATISFIABLE";
      print_endline (Ec_cnf.Dimacs.solution_to_string a);
      Printf.printf "c don't-cares: %d of %d\n" (Ec_cnf.Assignment.dc_count a)
        (Ec_cnf.Assignment.num_vars a);
      10
  else if not (Ec_cnf.Assignment.satisfies a f) then begin
    print_endline "c INTERNAL ERROR: model does not satisfy";
    1
  end
  else begin
    print_endline "s SATISFIABLE";
    print_endline (Ec_cnf.Dimacs.solution_to_string a);
    Printf.printf "c don't-cares: %d of %d\n" (Ec_cnf.Assignment.dc_count a)
      (Ec_cnf.Assignment.num_vars a);
    10
  end

let report_solution ?verify f = function
  | Ec_sat.Outcome.Unsat ->
    print_endline "s UNSATISFIABLE";
    20
  | Ec_sat.Outcome.Unknown reason ->
    Printf.printf "c stopped: %s\n" (Ec_util.Budget.reason_to_string reason);
    print_endline "s UNKNOWN";
    0
  | Ec_sat.Outcome.Sat a -> report_model ?verify f a

(* ---- solve ---- *)

let solve_cmd =
  let run file backend engine_opts timeout conflicts verify trace metrics =
    let backend = apply_engine_opts backend engine_opts in
    install_interrupt_handlers ();
    with_observability ~trace ~metrics @@ fun () ->
    print_engine_config backend;
    let f = load file in
    let backend = Ec_core.Backend.with_budget backend (budget_of timeout conflicts) in
    let r, t = Ec_util.Stopwatch.time (fun () -> Ec_core.Backend.solve_response backend f) in
    Printf.printf "c backend=%s time=%.4fs conflicts=%d nodes=%d\n"
      (Ec_core.Backend.name backend) t
      r.Ec_core.Backend.counters.Ec_util.Budget.spent_conflicts
      r.Ec_core.Backend.counters.Ec_util.Budget.spent_nodes;
    report_solution ~verify f r.Ec_core.Backend.outcome
  in
  let doc = "solve a DIMACS CNF instance" in
  Cmd.v (Cmd.info "solve" ~doc)
    Term.(const run $ cnf_file $ backend $ engine_opt_arg $ timeout_arg $ conflicts_arg
          $ verify_arg $ trace_arg $ metrics_arg)

(* ---- enable ---- *)

let enable_cmd =
  let run file objective_mode weight verify =
    let f = load file in
    let mode =
      if objective_mode then Ec_core.Enabling.Objective weight
      else Ec_core.Enabling.Constraints
    in
    match Ec_core.Flow.solve_initial ~enable:mode ~solver:Ec_core.Backend.ilp_exact f with
    | None ->
      print_endline "s UNSATISFIABLE (no enabled solution)";
      20
    | Some init ->
      Printf.printf "c enabling mode=%s flexibility=%.3f time=%.4fs\n"
        (if objective_mode then "objective" else "constraints")
        init.flexibility init.solve_time_s;
      report_model ~verify f init.assignment
  in
  let objective_mode =
    Arg.(value & flag
         & info [ "objective"; "O" ]
             ~doc:"Use the augmented-objective mode (EC (OF)) instead of hard constraints.")
  in
  let weight =
    Arg.(value & opt float 1.0
         & info [ "weight"; "w" ] ~doc:"Flexibility weight for the objective mode.")
  in
  let doc = "solve with enabling EC (paper \xc2\xa75)" in
  Cmd.v (Cmd.info "enable" ~doc)
    Term.(const run $ cnf_file $ objective_mode $ weight $ verify_arg)

(* ---- fast / preserve ---- *)

(* Budget exhaustion must not masquerade as unsatisfiability: without a
   verdict the exit code is the competition's 0/unknown, not 20. *)
let report_no_solution = function
  | Ec_util.Budget.Completed ->
    print_endline "s UNSATISFIABLE (modified instance)";
    20
  | reason ->
    Printf.printf "c stopped: %s\n" (Ec_util.Budget.reason_to_string reason);
    print_endline "s UNKNOWN";
    0

let with_initial file backend eliminate k =
  let f = load file in
  check_eliminate f eliminate;
  match Ec_core.Flow.solve_initial ~solver:backend f with
  | None ->
    print_endline "s UNSATISFIABLE (original instance)";
    20
  | Some init -> k init

let fast_cmd =
  let run file backend engine_opts add eliminate timeout conflicts verify trace metrics =
    let backend = apply_engine_opts backend engine_opts in
    let added = List.map parse_clause add in
    install_interrupt_handlers ();
    with_observability ~trace ~metrics @@ fun () ->
    print_engine_config backend;
    with_initial file backend eliminate (fun init ->
        let script = changes_of added eliminate in
        let r =
          Ec_core.Flow.apply_change_response ~strategy:Ec_core.Flow.Fast
            ~solver:backend ~budget:(budget_of timeout conflicts) init script
        in
        match r.Ec_core.Flow.result with
        | None -> report_no_solution r.Ec_core.Flow.reason
        | Some u ->
          (match u.sub_instance_size with
          | Some (v, c) -> Printf.printf "c fast-EC cone: %d vars, %d clauses\n" v c
          | None -> print_endline "c fast-EC fell back to a full re-solve");
          Printf.printf "c preserved %.1f%% of the initial solution, %.4fs\n"
            (100.0 *. u.preserved_fraction) u.resolve_time_s;
          report_model ~verify u.new_formula u.new_assignment)
  in
  let doc = "apply changes and re-solve with fast EC (paper \xc2\xa76, Figure 2)" in
  Cmd.v (Cmd.info "fast" ~doc)
    Term.(const run $ cnf_file $ backend $ engine_opt_arg $ add_clauses_arg $ eliminate_arg
          $ timeout_arg $ conflicts_arg $ verify_arg $ trace_arg $ metrics_arg)

(* [--engine] names are validated before any file is read — the
   [check_jobs] convention: an unknown name fails in milliseconds with
   a diagnostic on stderr and exit 2. *)
let preserving_engine_of_name = function
  | "ilp" -> Ec_core.Preserving.Ilp_objective Ec_ilpsolver.Bnb.default_options
  | "ilp-iterative" -> Ec_core.Preserving.Ilp_iterative Ec_ilpsolver.Bnb.default_options
  | "sat" -> Ec_core.Preserving.Sat_cardinality Ec_sat.Cdcl.default_options
  | "maxsat" -> Ec_core.Preserving.Sat_maxsat Ec_sat.Maxsat.default_options
  | name ->
    Printf.eprintf
      "ecsat: unknown preserving engine %S (expected ilp, ilp-iterative, sat or maxsat)\n"
      name;
    exit 2

let preserve_cmd =
  let run file backend engine_opts add eliminate use_sat engine_name timeout conflicts verify =
    let backend = apply_engine_opts backend engine_opts in
    let added = List.map parse_clause add in
    let engine =
      match engine_name with
      | Some name -> preserving_engine_of_name name
      | None ->
        if use_sat then Ec_core.Preserving.Sat_cardinality Ec_sat.Cdcl.default_options
        else Ec_core.Preserving.default_engine
    in
    print_engine_config backend;
    with_initial file backend eliminate (fun init ->
        let script = changes_of added eliminate in
        let r =
          Ec_core.Flow.apply_change_response
            ~strategy:(Ec_core.Flow.Preserve engine) ~solver:backend
            ~budget:(budget_of timeout conflicts) init script
        in
        match r.Ec_core.Flow.result with
        | None -> report_no_solution r.Ec_core.Flow.reason
        | Some u ->
          Printf.printf "c preserved %.1f%% of the initial solution, %.4fs\n"
            (100.0 *. u.preserved_fraction) u.resolve_time_s;
          report_model ~verify u.new_formula u.new_assignment)
  in
  let use_sat =
    Arg.(value & flag
         & info [ "sat-engine" ]
             ~doc:"Use the CDCL+cardinality engine instead of the ILP objective \
                   (shorthand for $(b,--engine sat)).")
  in
  let engine_name =
    Arg.(value & opt (some string) None
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"Preserving engine: $(b,ilp) (\xc2\xa77 objective, branch & bound), \
                   $(b,ilp-iterative) (repeated ILP decision probes, re-encoded per \
                   probe), $(b,sat) (incremental CDCL + reusable cardinality bound), \
                   or $(b,maxsat) (core-guided MaxSAT on one incremental session).")
  in
  let doc = "apply changes and re-solve with preserving EC (paper \xc2\xa77)" in
  Cmd.v (Cmd.info "preserve" ~doc)
    Term.(const run $ cnf_file $ backend $ engine_opt_arg $ add_clauses_arg
          $ eliminate_arg $ use_sat $ engine_name $ timeout_arg $ conflicts_arg
          $ verify_arg)

(* ---- preprocess ---- *)

let preprocess_cmd =
  let run file output =
    let f = load file in
    match Ec_sat.Preprocess.simplify f with
    | `Unsat ->
      print_endline "c preprocessing proved unsatisfiability";
      print_endline "s UNSATISFIABLE";
      20
    | `Simplified r ->
      Printf.printf
        "c %d -> %d clauses (%d removed, %d literals stripped, %d vars fixed, %d eliminated)\n"
        (Ec_cnf.Formula.num_clauses f)
        (Ec_cnf.Formula.num_clauses r.Ec_sat.Preprocess.formula)
        r.Ec_sat.Preprocess.clauses_removed r.Ec_sat.Preprocess.literals_removed
        (List.length r.Ec_sat.Preprocess.fixed)
        (List.length r.Ec_sat.Preprocess.eliminated);
      (match output with
      | Some path ->
        Ec_cnf.Dimacs.write_file ~comment:"simplified by ecsat preprocess" path
          r.Ec_sat.Preprocess.formula;
        Printf.printf "c wrote %s\n" path
      | None -> ());
      0
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the simplified formula to a file.")
  in
  let doc = "simplify a DIMACS instance (subsumption, elimination, ...)" in
  Cmd.v (Cmd.info "preprocess" ~doc) Term.(const run $ cnf_file $ output)

(* ---- gen ---- *)

let gen_cmd =
  let run instance_name scale output =
    match Ec_instances.Registry.find instance_name with
    | exception Not_found ->
      Printf.eprintf "unknown instance %S; known: %s\n" instance_name
        (String.concat ", "
           (List.map
              (fun s -> s.Ec_instances.Registry.name)
              Ec_instances.Registry.paper_suite));
      1
    | spec ->
      let spec = Ec_instances.Registry.scale scale spec in
      let inst = Ec_instances.Registry.build spec in
      let comment =
        Printf.sprintf "%s (regenerated, scale %.2f) — see DESIGN.md" spec.name scale
      in
      (match output with
      | Some path ->
        Ec_cnf.Dimacs.write_file ~comment path inst.formula;
        Printf.printf "wrote %s: %d vars, %d clauses\n" path
          (Ec_cnf.Formula.num_vars inst.formula)
          (Ec_cnf.Formula.num_clauses inst.formula)
      | None -> print_string (Ec_cnf.Dimacs.to_string ~comment inst.formula));
      0
  in
  let instance_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME"
         ~doc:"Instance name from the paper's suite (e.g. $(b,par8-1-c)).")
  in
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Shrink factor (1.0 = paper size).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write to a file instead of stdout.")
  in
  let doc = "regenerate a benchmark instance as DIMACS" in
  Cmd.v (Cmd.info "gen" ~doc) Term.(const run $ instance_name $ scale $ output)

(* ---- tables ---- *)

let check_min flag minimum v =
  if v < minimum then begin
    Printf.eprintf "ecsat: %s must be >= %d (got %d)\n" flag minimum v;
    exit 2
  end

(* Same up-front validation convention as [check_jobs]. *)
let tables_preserving_of_name = function
  | "tiered" -> Ec_harness.Protocol.Tiered
  | "ilp" -> Ec_harness.Protocol.Forced_ilp
  | "maxsat" -> Ec_harness.Protocol.Forced_maxsat
  | name ->
    Printf.eprintf
      "ecsat: unknown tables engine %S (expected tiered, ilp or maxsat)\n" name;
    exit 2

let tables_cmd =
  let run table scale trials no_large paper jobs engine_name trace metrics =
    check_jobs jobs;
    (match table with
    | Some n when n < 1 || n > 3 ->
      Printf.eprintf "ecsat: --table must be 1, 2 or 3 (got %d)\n" n;
      exit 2
    | Some _ | None -> ());
    check_min "--trials" 1 trials;
    if not (scale > 0.0) then begin
      Printf.eprintf "ecsat: --scale must be > 0 (got %g)\n" scale;
      exit 2
    end;
    let preserving = tables_preserving_of_name engine_name in
    install_interrupt_handlers ();
    with_observability ~trace ~metrics @@ fun () ->
    let config =
      if paper then { Ec_harness.Protocol.paper_config with jobs; preserving }
      else
        { Ec_harness.Protocol.default_config with
          scale;
          trials;
          include_large = not no_large;
          jobs;
          preserving }
    in
    let progress s = Printf.eprintf "[%s]\n%!" s in
    let run_one = function
      | 1 -> print_endline (Ec_harness.Table1.render (Ec_harness.Table1.run ~progress config))
      | 2 -> print_endline (Ec_harness.Table2.render (Ec_harness.Table2.run ~progress config))
      | _ (* 3: [--table] was checked above *) ->
        print_endline (Ec_harness.Table3.render (Ec_harness.Table3.run ~progress config))
    in
    (match table with Some n -> run_one n | None -> List.iter run_one [ 1; 2; 3 ]);
    if trace <> None then begin
      (* Per-instance wall-clock rollup from the buffered spans — the
         traced run's summary of where the tables actually spent their
         time, one row per stage/instance. *)
      match Ec_harness.Protocol.instance_rollup () with
      | [] -> ()
      | rows ->
        print_endline "c span rollup (stage/instance  spans  total_s):";
        List.iter
          (fun (r : Ec_util.Trace.rollup_row) ->
            Printf.printf "c   %-32s %5d %10.4f\n" r.roll_name r.roll_count
              (r.roll_total_us /. 1e6))
          rows
    end;
    0
  in
  let table =
    Arg.(value & opt (some int) None & info [ "table"; "t" ] ~docv:"N"
         ~doc:"Run only table $(docv) (1, 2 or 3); default all.")
  in
  let scale =
    Arg.(value & opt float Ec_harness.Protocol.default_config.scale
         & info [ "scale" ] ~doc:"Instance shrink factor (1.0 = paper sizes).")
  in
  let trials =
    Arg.(value & opt int Ec_harness.Protocol.default_config.trials
         & info [ "trials" ] ~doc:"Trials per instance for Tables 2/3.")
  in
  let no_large =
    Arg.(value & flag & info [ "no-large" ] ~doc:"Skip the heuristic-tier instances.")
  in
  let paper =
    Arg.(value & flag
         & info [ "paper" ]
             ~doc:"Full paper-scale run: scale 1.0, no solve caps.  Takes hours.")
  in
  let engine_name =
    Arg.(value & opt string "tiered"
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"Engine for Table 3's preserving re-solves: $(b,tiered) (the \
                   historical per-tier assignment, the default), $(b,ilp) (the \
                   \xc2\xa77 ILP objective on every instance), or $(b,maxsat) \
                   (core-guided MaxSAT on every instance).")
  in
  let doc = "regenerate the paper's result tables" in
  Cmd.v (Cmd.info "tables" ~doc)
    Term.(const run $ table $ scale $ trials $ no_large $ paper $ jobs_arg $ engine_name
          $ trace_arg $ metrics_arg)

(* ---- serve ---- *)

(* Endpoint flags are validated before the daemon touches a socket or
   spawns a domain — the [check_jobs]/[check_sink] convention: a serve
   invocation that cannot possibly listen fails in milliseconds with a
   diagnostic and exit 2, it does not come up half-dead. *)
let check_serve_endpoint socket tcp =
  (match (socket, tcp) with
  | Some _, Some _ ->
    Printf.eprintf "ecsat: --socket and --tcp are mutually exclusive\n";
    exit 2
  | _ -> ());
  (match socket with
  | None -> ()
  | Some path ->
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf
        "ecsat: --socket parent directory %S does not exist\n" dir;
      exit 2
    end;
    (match Unix.access dir [ Unix.W_OK; Unix.X_OK ] with
    | () -> ()
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "ecsat: --socket directory %S is not writable: %s\n" dir
        (Unix.error_message err);
      exit 2);
    if Sys.file_exists path then
      match (Unix.stat path).Unix.st_kind with
      | Unix.S_SOCK -> () (* a stale socket from a previous run; replaced *)
      | _ ->
        Printf.eprintf
          "ecsat: --socket path %S exists and is not a socket (refusing to replace it)\n"
          path;
        exit 2);
  match tcp with
  | Some port when port < 1 || port > 65535 ->
    Printf.eprintf "ecsat: --tcp port must be in 1..65535 (got %d)\n" port;
    exit 2
  | _ -> ()

let serve_cmd =
  let run socket tcp jobs session_bound global_bound max_sessions deadline_ms
      drain_s grace_s trace metrics =
    check_jobs jobs;
    check_serve_endpoint socket tcp;
    check_min "--session-queue-bound" 1 session_bound;
    check_min "--queue-bound" 1 global_bound;
    check_min "--max-sessions" 1 max_sessions;
    check_min "--deadline-ms" 1 deadline_ms;
    if drain_s < 0.0 then begin
      Printf.eprintf "ecsat: --drain-timeout must be >= 0 (got %g)\n" drain_s;
      exit 2
    end;
    if grace_s < 0.0 then begin
      Printf.eprintf "ecsat: --watchdog-grace must be >= 0 (got %g)\n" grace_s;
      exit 2
    end;
    with_observability ~trace ~metrics @@ fun () ->
    let stop = Atomic.make false in
    (* For the daemon the signals mean "drain", not "cancel": stop
       accepting, finish in-flight work against the drain deadline,
       exit 0.  The reader polls the flag, so an idle daemon reacts
       within its select tick. *)
    let handler = Sys.Signal_handle (fun _signum -> Atomic.set stop true) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler;
    let cfg =
      { (Ec_server.Server.default_config ()) with
        jobs;
        session_queue_bound = session_bound;
        global_queue_bound = global_bound;
        max_sessions;
        default_deadline_ms = deadline_ms;
        drain_deadline_s = drain_s;
        watchdog_grace_s = grace_s;
        stop }
    in
    match
      match (socket, tcp) with
      | Some path, None -> Ec_server.Server.run_unix_socket cfg path
      | None, Some port -> Ec_server.Server.run_tcp cfg port
      | None, None | Some _, Some _ -> Ec_server.Server.run_stdio cfg
    with
    | code -> code
    | exception Unix.Unix_error (err, fn, arg) ->
      (* Validation cannot prove a bind will succeed (EADDRINUSE, a
         race on the path); late endpoint failures keep the same
         contract as the up-front checks. *)
      Printf.eprintf "ecsat: serve endpoint failed: %s(%s): %s\n" fn arg
        (Unix.error_message err);
      exit 2
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket instead of stdio.  A stale \
                   socket file at $(docv) is replaced; sessions persist across \
                   client connections.")
  in
  let tcp_arg =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT"
             ~doc:"Listen on loopback TCP port $(docv) instead of stdio.")
  in
  let session_bound_arg =
    Arg.(value & opt int 16
         & info [ "session-queue-bound" ] ~docv:"N"
             ~doc:"Max queued requests per session before the server answers \
                   $(b,overloaded) with a retry_after_ms hint.")
  in
  let global_bound_arg =
    Arg.(value & opt int 256
         & info [ "queue-bound" ] ~docv:"N"
             ~doc:"Max queued requests across all sessions (global backpressure).")
  in
  let max_sessions_arg =
    Arg.(value & opt int 1024
         & info [ "max-sessions" ] ~docv:"N" ~doc:"Max concurrent sessions.")
  in
  let deadline_arg =
    Arg.(value & opt int 2000
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request solve deadline (a request's own \
                   deadline_ms overrides it); a solve past its deadline is \
                   cancelled cooperatively and answered $(b,unknown).")
  in
  let drain_arg =
    Arg.(value & opt float 5.0
         & info [ "drain-timeout" ] ~docv:"SECS"
             ~doc:"On shutdown, how long in-flight work may finish before it \
                   is cancelled cooperatively.")
  in
  let grace_arg =
    Arg.(value & opt float 0.05
         & info [ "watchdog-grace" ] ~docv:"SECS"
             ~doc:"How long past its deadline the watchdog lets a solve run \
                   before pulling its cancellation flag.  The engine's own \
                   budget check normally answers first; the watchdog is the \
                   backstop for a solve wedged outside the engine (chaos \
                   tests shrink this to make injected stalls observable).")
  in
  let doc = "run the EC daemon (JSONL protocol over stdio, a Unix socket, or loopback TCP)" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ tcp_arg $ jobs_arg $ session_bound_arg
          $ global_bound_arg $ max_sessions_arg $ deadline_arg $ drain_arg
          $ grace_arg $ trace_arg $ metrics_arg)

let () =
  (* Fault-injection hook: ECSAT_FAULTS="seed=7;cdcl.answer=corrupt;..."
     arms deterministic failpoints inside the engines — the chaos knob
     the robustness tests and bench/ci.sh drive.  A malformed plan
     prints a diagnostic and exits 2 before any solving starts. *)
  Ec_util.Fault.configure_from_env ();
  let doc = "ILP-based engineering change on SAT (DAC 2002 reproduction)" in
  let info = Cmd.info "ecsat" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info [ solve_cmd; enable_cmd; fast_cmd; preserve_cmd; preprocess_cmd; gen_cmd; tables_cmd; serve_cmd ]))
