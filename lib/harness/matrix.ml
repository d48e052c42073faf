(* Benchmark matrix: cells, JSONL store, scenarios, regression gate.
   See matrix.mli for the contract and DESIGN.md §13 for the design
   discussion (keying, determinism, gate semantics). *)

module Json = Ec_util.Json

type cell = {
  commit : string;
  engine : string;
  config : string;
  digest : string;
  scenario : string;
  scale : int;
  cores_online : int;
  ok : bool;
  work : (string * int) list;
  wall_s : float;
}

(* --- JSON record format ------------------------------------------ *)

let cell_to_json c =
  Json.to_string
    (Json.Obj
       [ ("commit", Json.String c.commit);
         ("engine", Json.String c.engine);
         ("config", Json.String c.config);
         ("digest", Json.String c.digest);
         ("scenario", Json.String c.scenario);
         ("scale", Json.Int c.scale);
         ("cores_online", Json.Int c.cores_online);
         ("ok", Json.Bool c.ok);
         ("work", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) c.work));
         ("wall_s", Json.Float c.wall_s) ])

let cell_of_json line =
  match Json.parse line with
  | Error e -> Error e
  | Ok v ->
    let str key =
      match Option.bind (Json.member key v) Json.to_string_opt with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "missing string field %S" key)
    in
    let int key =
      match Option.bind (Json.member key v) Json.to_int_opt with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "missing int field %S" key)
    in
    let ( let* ) = Result.bind in
    let* commit = str "commit" in
    let* engine = str "engine" in
    let* config = str "config" in
    let* digest = str "digest" in
    let* scenario = str "scenario" in
    let* scale = int "scale" in
    let* cores_online = int "cores_online" in
    let* ok =
      match Option.bind (Json.member "ok" v) Json.to_bool_opt with
      | Some b -> Ok b
      | None -> Error "missing bool field \"ok\""
    in
    let* wall_s =
      match Option.bind (Json.member "wall_s" v) Json.to_float_opt with
      | Some f -> Ok f
      | None -> Error "missing float field \"wall_s\""
    in
    let work =
      match Json.member "work" v with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, w) -> Option.map (fun i -> (k, i)) (Json.to_int_opt w))
          fields
      | _ -> []
    in
    Ok { commit; engine; config; digest; scenario; scale; cores_online; ok; work; wall_s }

(* --- the store ---------------------------------------------------- *)

let load ~path =
  if not (Sys.file_exists path) then Ok []
  else
    match open_in path with
    | exception Sys_error e -> Error e
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go n acc =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | "" -> go (n + 1) acc
            | line -> (
              match cell_of_json line with
              | Ok c -> go (n + 1) (c :: acc)
              | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e))
          in
          go 1 [])

(* A cell's identity in the store: re-running the matrix on a commit
   measures the same (digest, scenario, scale) cells again, and the
   store keeps only the first. *)
let key c = (c.commit, c.digest, c.scenario, c.scale)

let append ~path cells =
  match load ~path with
  | Error e -> Error e
  | Ok stored -> (
    let seen = Hashtbl.create 64 in
    List.iter (fun c -> Hashtbl.replace seen (key c) ()) stored;
    let fresh = List.filter (fun c -> not (Hashtbl.mem seen (key c))) cells in
    match open_out_gen [ Open_append; Open_creat ] 0o644 path with
    | exception Sys_error e -> Error e
    | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          match
            List.iter (fun c -> output_string oc (cell_to_json c ^ "\n")) fresh
          with
          | () -> Ok (List.length fresh)
          | exception Sys_error e -> Error e))

(* --- scenarios ---------------------------------------------------- *)

type scenario = {
  sc_name : string;
  sc_doc : string;
  sc_run :
    engine:Ec_core.Engine_config.t -> scale:int -> (bool * (string * int) list) option;
}

let scenario_name s = s.sc_name

let scenario_doc s = s.sc_doc

let custom ~name ~doc ~run = { sc_name = name; sc_doc = doc; sc_run = run }

let find name scenarios = List.find_opt (fun s -> s.sc_name = name) scenarios

(* Deterministic budgets: work dimensions only, never wall time — a
   slow machine spends the same conflicts/nodes/iterations as a fast
   one, so the counters below are reproducible. *)
let work_budget () =
  Ec_util.Budget.create ~conflicts:500_000 ~nodes:500_000 ~iterations:5_000_000 ()

let counters_work (c : Ec_util.Budget.counters) =
  [ ("conflicts", c.Ec_util.Budget.spent_conflicts);
    ("decisions", c.Ec_util.Budget.spent_nodes);
    ("pivots", c.Ec_util.Budget.spent_pivots);
    ("restarts", c.Ec_util.Budget.spent_restarts);
    ("iterations", c.Ec_util.Budget.spent_iterations) ]

let sum_work a b = List.map2 (fun (k, x) (_, y) -> (k, x + y)) a b

let zero_work = counters_work Ec_util.Budget.zero

(* Scale a registry spec so its variable count is ~[scale]. *)
let scaled_spec spec scale =
  let factor = float_of_int scale /. float_of_int spec.Ec_instances.Registry.num_vars in
  Ec_instances.Registry.scale factor spec

let backend_of engine =
  match Ec_core.Backend.of_config engine with Ok b -> Some b | Error _ -> None

let solve_work backend formula =
  let r = Ec_core.Backend.solve_response ~budget:(work_budget ()) backend formula in
  let sat =
    match r.Ec_core.Backend.outcome with
    | Ec_sat.Outcome.Sat _ -> true
    | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> false
  in
  (sat, counters_work r.Ec_core.Backend.counters)

(* "stream": an EC change stream.  Build one scaled paper instance,
   then alternate add-only deltas (anchored clauses, satisfied by the
   planted assignment — the instance provably stays SAT) with full
   re-solves.  Every feasibility backend can run it; the planted model
   certifies each step. *)
let run_stream ~engine ~scale =
  match backend_of engine with
  | None -> None
  | Some backend ->
    let spec = scaled_spec (List.hd Ec_instances.Registry.small_suite) scale in
    let inst = Ec_instances.Registry.build spec in
    let rng = Ec_util.Rng.create (spec.Ec_instances.Registry.seed lxor (31 * scale)) in
    let num_vars = Ec_cnf.Formula.num_vars inst.Ec_instances.Registry.formula in
    let delta_size = max 1 (Ec_cnf.Formula.num_clauses inst.Ec_instances.Registry.formula / 20) in
    let steps = 4 in
    let rec go step formula ok work =
      if step > steps then Some (ok, work)
      else begin
        let delta =
          List.init delta_size (fun _ ->
              Ec_instances.Padding.anchored_clause rng
                ~planted:inst.Ec_instances.Registry.planted ~num_vars ~width:3)
        in
        let formula = Ec_cnf.Formula.add_clauses formula delta in
        let sat, w = solve_work backend formula in
        go (step + 1) formula (ok && sat) (sum_work work w)
      end
    in
    let sat0, w0 = solve_work backend inst.Ec_instances.Registry.formula in
    go 1 inst.Ec_instances.Registry.formula sat0 w0

(* "tables": the Tables 1-3 suite (exact tier, scaled), one original
   solve per instance — the tables' base column under an arbitrary
   engine config. *)
let run_tables ~engine ~scale =
  match backend_of engine with
  | None -> None
  | Some backend ->
    let specs = List.map (fun s -> scaled_spec s scale) Ec_instances.Registry.small_suite in
    let ok, work =
      List.fold_left
        (fun (ok, work) spec ->
          let inst = Ec_instances.Registry.build spec in
          let sat, w = solve_work backend inst.Ec_instances.Registry.formula in
          (ok && sat, sum_work work w))
        (true, zero_work) specs
    in
    Some (ok, work)

(* "lp": deterministic random feasible bounded LPs for the simplex
   engine.  Feasible because b > 0 (x = 0 works); bounded because
   every variable carries an explicit x_j <= 1 row. *)
let run_lp ~engine ~scale =
  match engine with
  | Ec_core.Engine_config.Simplex options ->
    let rng = Ec_util.Rng.create (0x51317 lxor scale) in
    let n = max 2 scale in
    let m = n in
    let a =
      Array.init (m + n) (fun i ->
          if i < m then Array.init n (fun _ -> Ec_util.Rng.float rng)
          else Array.init n (fun j -> if j = i - m then 1.0 else 0.0))
    in
    let b = Array.init (m + n) (fun i -> if i < m then 1.0 +. Ec_util.Rng.float rng else 1.0) in
    let c = Array.init n (fun _ -> Ec_util.Rng.float rng) in
    let before = Ec_simplex.Simplex.iterations_performed () in
    let result =
      Ec_simplex.Simplex.solve_canonical ~options ~budget:(work_budget ()) ~a ~b ~c ()
    in
    let pivots = Ec_simplex.Simplex.iterations_performed () - before in
    let ok = match result with Ec_simplex.Simplex.Optimal _ -> true | _ -> false in
    Some (ok, [ ("conflicts", 0); ("decisions", 0); ("pivots", pivots);
                ("restarts", 0); ("iterations", pivots) ])
  | _ -> None

let builtins =
  [ { sc_name = "stream";
      sc_doc = "add-only EC change stream on a scaled paper instance";
      sc_run = (fun ~engine ~scale -> run_stream ~engine ~scale) };
    { sc_name = "tables";
      sc_doc = "Tables 1-3 exact-tier suite, one original solve per instance";
      sc_run = (fun ~engine ~scale -> run_tables ~engine ~scale) };
    { sc_name = "lp";
      sc_doc = "deterministic feasible bounded LPs (simplex engine)";
      sc_run = (fun ~engine ~scale -> run_lp ~engine ~scale) } ]

(* --- running ------------------------------------------------------ *)

let cores_online () = Domain.recommended_domain_count ()

let run_cell ~commit scenario engine ~scale =
  let started = Unix.gettimeofday () in
  match scenario.sc_run ~engine ~scale with
  | None -> None
  | Some (ok, work) ->
    Some
      { commit;
        engine = Ec_core.Engine_config.name engine;
        config = Ec_core.Engine_config.show engine;
        digest = Ec_core.Engine_config.digest engine;
        scenario = scenario.sc_name;
        scale;
        cores_online = cores_online ();
        ok;
        work;
        wall_s = Unix.gettimeofday () -. started }

(* --- the gate ----------------------------------------------------- *)

type gate_options = {
  work_tolerance : float;
  wall_tolerance : float;
  gate_wall : bool;
}

let default_gate_options = { work_tolerance = 1.5; wall_tolerance = 2.0; gate_wall = true }

type verdict = {
  cell : cell;
  baseline : cell option;
  passed : bool;
  notes : string list;
}

(* Most recent store entry with the same key from a different commit;
   the store is append-only, so "most recent" is "last in file
   order". *)
let find_baseline store cell =
  List.fold_left
    (fun acc b ->
      if
        b.digest = cell.digest && b.scenario = cell.scenario && b.scale = cell.scale
        && b.commit <> cell.commit
      then Some b
      else acc)
    None store

let judge options baseline cell =
  match baseline with
  | None -> { cell; baseline = None; passed = true; notes = [ "no baseline: pass" ] }
  | Some base ->
    let notes = ref [] in
    let failed = ref false in
    let fail msg = failed := true; notes := msg :: !notes in
    if base.ok && not cell.ok then
      fail (Printf.sprintf "ok regression (baseline commit %s succeeded)" base.commit);
    List.iter
      (fun (k, v) ->
        match List.assoc_opt k base.work with
        | None -> ()
        | Some bv ->
          let allowed =
            int_of_float (ceil ((float_of_int bv *. options.work_tolerance) +. 64.0))
          in
          if v > allowed then
            fail (Printf.sprintf "work regression: %s %d > allowed %d (baseline %d)" k v allowed bv))
      cell.work;
    if cell.cores_online <> base.cores_online then
      notes := "wall gate skipped: cores_online differs from baseline" :: !notes
    else if not options.gate_wall then
      notes := "wall gate skipped: disabled by caller" :: !notes
    else begin
      let allowed = (base.wall_s *. options.wall_tolerance) +. 0.5 in
      if cell.wall_s > allowed then
        fail
          (Printf.sprintf "wall regression: %.3fs > allowed %.3fs (baseline %.3fs)"
             cell.wall_s allowed base.wall_s)
    end;
    { cell; baseline; passed = not !failed; notes = List.rev !notes }

let gate ?(options = default_gate_options) ~baseline cells =
  List.map (fun c -> judge options (find_baseline baseline c) c) cells
