(* The benchmark matrix runner: every engine config × scenario × scale
   cell (DESIGN.md §13), gated against the most recent cells of other
   commits in an append-only JSONL store, then appended to it.

   Usage:
     dune exec bench/main.exe -- [--store PATH] [--commit HASH] [--no-gate]
       [--matrix-scales 24,48] [--matrix-engine CONFIG]...

   Exit codes: 0 every cell passed the gate (or --no-gate), 1 a gate
   failure, 2 a bad flag or an unusable store, before any cell runs. *)

type args = {
  mutable store : string;
  mutable commit : string option;
  mutable no_gate : bool;
  mutable scales : int list;
  mutable engines : string list;  (* config strings; [] = Matrix.default_engines *)
}

(* A malformed value is a usage error caught before any work runs:
   diagnostic on stderr naming the flag, exit 2. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let parse_scales s =
  let scales =
    String.split_on_char ',' s |> List.map String.trim |> List.filter (fun x -> x <> "")
  in
  if scales = [] then usage_error "--matrix-scales expects at least one scale";
  List.map
    (fun x ->
      match int_of_string_opt x with
      | Some n when n >= 1 -> n
      | Some n -> usage_error "--matrix-scales: every scale must be >= 1 (got %d)" n
      | None -> usage_error "--matrix-scales expects a comma-separated int list, got %S" s)
    scales

let parse_args () =
  let a =
    { store = "bench/results.jsonl"; commit = None; no_gate = false; scales = [ 24; 48 ];
      engines = [] }
  in
  let rec go = function
    | [] -> ()
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
      a.scales <- parse_scales s;
      go rest
    | "--matrix-engine" :: spec :: rest ->
      (match Ec_core.Engine_config.parse spec with
      | Ok _ -> a.engines <- a.engines @ [ spec ]
      | Error e -> usage_error "--matrix-engine: %s" e);
      go rest
    | arg :: _ -> usage_error "unknown argument %S" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  (* the store is append-only: probe writability without truncating *)
  (try close_out (open_out_gen [ Open_append; Open_creat ] 0o644 a.store)
   with Sys_error msg -> usage_error "--store expects a writable path: %s" msg);
  a

(* The serve scenario lives here rather than in Ec_harness.Matrix
   because the harness does not link the server: a resident session
   fed an add-only clause stream (satisfied by the planted assignment,
   so every step stays SAT), re-solved per delta.  The session owns
   its engine (a warm incremental CDCL), so the scenario only pairs
   with the default cdcl config. *)
let serve_scenario =
  Ec_harness.Matrix.custom ~name:"serve" ~run:(fun ~engine ~scale ->
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

let () =
  let args = parse_args () in
  let module M = Ec_harness.Matrix in
  let commit =
    match args.commit with
    | Some c -> c
    | None -> ( try Sys.getenv "ECSAT_COMMIT" with Not_found -> "dev")
  in
  let cores = M.cores_online () in
  Printf.printf "Benchmark matrix: commit %s, cores_online %d, store %s\n%!" commit cores
    args.store;
  let engines =
    List.map
      (fun s -> Result.get_ok (Ec_core.Engine_config.parse s) (* validated, or a default *))
      (match args.engines with [] -> M.default_engines | specs -> specs)
  in
  let baseline =
    match M.load ~path:args.store with
    | Ok cells -> cells
    | Error e -> usage_error "cannot load results store: %s" e
  in
  let cells =
    List.concat_map
      (fun scenario ->
        List.concat_map
          (fun engine ->
            List.filter_map
              (fun scale ->
                let cell = M.run_cell ~commit scenario engine ~scale in
                Option.iter
                  (fun (c : M.cell) ->
                    Printf.printf "  %-11s %-40s scale %3d  ok %-5b %7.3fs  %s\n%!" c.scenario
                      c.config scale c.ok c.wall_s
                      (String.concat " "
                         (List.filter_map
                            (fun (k, v) ->
                              if v = 0 then None else Some (Printf.sprintf "%s=%d" k v))
                            c.work)))
                  cell;
                cell)
              args.scales)
          engines)
      (M.builtins @ [ serve_scenario ])
  in
  Printf.printf "  %d cells measured\n" (List.length cells);
  if cores <= 1 then
    Printf.printf
      "  cores_online = %d <= 1: wall-time gate SKIPPED (deterministic work counters still gated)\n"
      cores;
  let verdicts = M.gate ~baseline cells in
  let failures = List.filter (fun (v : M.verdict) -> not v.passed) verdicts in
  List.iter
    (fun (v : M.verdict) ->
      Printf.printf "  GATE FAIL %s/%s@%d: %s\n" v.cell.scenario v.cell.config v.cell.scale
        (String.concat "; " v.notes))
    failures;
  Printf.printf "  gate: %d/%d cells passed (%d without baseline)\n"
    (List.length verdicts - List.length failures)
    (List.length verdicts)
    (List.length (List.filter (fun (v : M.verdict) -> v.baseline = None) verdicts));
  (match M.append ~path:args.store cells with
  | Ok n ->
    Printf.printf "  appended %d cells to %s (%d already stored)\n" n args.store
      (List.length cells - n)
  | Error e ->
    Printf.eprintf "bench: cannot append to results store: %s\n" e;
    exit 2);
  if failures <> [] && not args.no_gate then exit 1
