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
  sc_run :
    engine:Ec_core.Engine_config.t -> scale:int -> (bool * (string * int) list) option;
}

let scenario_name s = s.sc_name

let custom ~name ~run = { sc_name = name; sc_run = run }

(* Deterministic budgets: work dimensions only, never wall time — a
   slow machine spends the same conflicts/nodes/iterations as a fast
   one, so the counters below are reproducible. *)
let work_budget () =
  Ec_util.Budget.create ~conflicts:500_000 ~nodes:500_000 ~iterations:5_000_000 ()

let counters_work (c : Ec_util.Budget.counters) =
  [ ("conflicts", c.Ec_util.Budget.spent_conflicts);
    ("decisions", c.Ec_util.Budget.spent_nodes);
    ("restarts", c.Ec_util.Budget.spent_restarts);
    ("iterations", c.Ec_util.Budget.spent_iterations) ]

let sum_work a b = List.map2 (fun (k, x) (_, y) -> (k, x + y)) a b

let zero_work = counters_work Ec_util.Budget.zero

(* Scale a registry spec so its variable count is ~[scale]. *)
let scaled_spec spec scale =
  let factor = float_of_int scale /. float_of_int spec.Ec_instances.Registry.num_vars in
  Ec_instances.Registry.scale factor spec

let is_sat = function
  | Ec_sat.Outcome.Sat _ -> true
  | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> false

let solve_work backend formula =
  let r = Ec_core.Backend.solve_response ~budget:(work_budget ()) backend formula in
  (is_sat r.Ec_core.Backend.outcome, counters_work r.Ec_core.Backend.counters)

(* "stream": an EC change stream.  Build one scaled paper instance,
   then alternate add-only deltas (anchored clauses, satisfied by the
   planted assignment — the instance provably stays SAT) with full
   re-solves.  Every backend can run it; the planted model certifies
   each step. *)
let run_stream ~engine ~scale =
  let backend = Ec_core.Backend.of_config engine in
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
  let backend = Ec_core.Backend.of_config engine in
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

(* The ablation scenarios (DESIGN.md §6).  Each runs one named paper
   instance scaled to ~[scale] variables, with fixed seeds and change
   scripts, and reports counts of what the ablated mechanism changes.
   All but [optimize] pair with the default cdcl config only: they
   compare mechanisms, not engines. *)

module Cdcl = Ec_sat.Cdcl

let fixture name scale =
  Ec_instances.Registry.build (scaled_spec (Ec_instances.Registry.find name) scale)

let default_cdcl_only engine run =
  match engine with
  | Ec_core.Engine_config.Cdcl o when o = Cdcl.default_options -> Some (run ())
  | _ -> None

let cdcl_solve ?phase_hint formula =
  let options = { Cdcl.default_options with budget = work_budget (); phase_hint } in
  Cdcl.solve_response ~options formula

(* Conflicts and decisions of [c], named [prefix_conflicts] and
   [prefix_decisions]. *)
let spent prefix (c : Ec_util.Budget.counters) =
  [ (prefix ^ "_conflicts", c.Ec_util.Budget.spent_conflicts);
    (prefix ^ "_decisions", c.Ec_util.Budget.spent_nodes) ]

(* "optimize" (A1, A3): one B&B optimization-mode solve of jnh201.  The
   greedy-completion and branching ablations are B&B configs in
   [default_engines].  A solve stopped by the node cap is counted in
   [capped] and is still ok when it returns a certified point. *)
let run_optimize ~engine ~scale =
  match engine with
  | Ec_core.Engine_config.Bnb options ->
    let inst = fixture "jnh201" scale in
    let model =
      Ec_core.Encode.model (Ec_core.Encode.of_formula inst.Ec_instances.Registry.formula)
    in
    let r =
      Ec_ilpsolver.Bnb.solve_response ~options:{ options with budget = work_budget () } model
    in
    let solution = r.Ec_ilpsolver.Bnb.solution in
    let certified =
      Ec_ilp.Solution.has_point solution
      && Result.is_ok (Ec_core.Certify.check_solution model solution)
    in
    let capped =
      match r.Ec_ilpsolver.Bnb.reason with Ec_util.Budget.Completed -> 0 | _ -> 1
    in
    Some (certified, counters_work r.Ec_ilpsolver.Bnb.counters @ [ ("capped", capped) ])
  | _ -> None

(* "warmstart" (A4, A6): jnh201 after a Table 3 change script.  How
   many variables of the old solution a cold CDCL solve, a CDCL solve
   phase-hinted with the old solution, and optimal preserving EC keep
   (out of [compared]); and how many variables DC recovery frees on
   the old solution. *)
let run_warmstart ~engine ~scale =
  default_cdcl_only engine @@ fun () ->
  let inst = fixture "jnh201" scale in
  let config = { Protocol.default_config with budget = work_budget () } in
  match Protocol.initial_solve config inst with
  | None | Some { Protocol.certified = false; _ } -> (false, [])
  | Some { Protocol.assignment = a0; _ } -> (
    let formula = inst.Ec_instances.Registry.formula in
    let script =
      Ec_cnf.Change.preserving_ec_script (Ec_util.Rng.create 99) formula ~reference:a0
        ~add_vars:5 ~del_vars:5 ~add_clauses:5 ~del_clauses:5 ~clause_width:3
    in
    let f' = Ec_cnf.Change.apply_script formula script in
    let reference = Ec_cnf.Assignment.extend a0 (Ec_cnf.Formula.num_vars f') in
    let cold = cdcl_solve f' and warm = cdcl_solve ~phase_hint:reference f' in
    let opt = Ec_core.Preserving.resolve ~budget:(work_budget ()) f' ~reference in
    match (cold.Cdcl.outcome, warm.Cdcl.outcome) with
    | Ec_sat.Outcome.Sat cold_a, Ec_sat.Outcome.Sat warm_a ->
      let kept a = Ec_cnf.Assignment.preserved_count ~old_assignment:reference a in
      ( opt.Ec_core.Preserving.optimal,
        spent "cold" cold.Cdcl.counters @ spent "warm" warm.Cdcl.counters
        @ [ ("compared", opt.Ec_core.Preserving.total);
            ("cold_preserved", kept cold_a);
            ("warm_preserved", kept warm_a);
            ("optimal_preserved", opt.Ec_core.Preserving.preserved);
            ("dc_freed", Ec_sat.Minimize.dc_gain formula a0) ] )
    | _ -> (false, []))

(* "cone" (A5): Table 2's cone size from an enabled vs a plain initial
   solution of f600, summed over five fast-EC change scripts. *)
let run_cone ~engine ~scale =
  default_cdcl_only engine @@ fun () ->
  let inst = fixture "f600" scale in
  let formula = inst.Ec_instances.Registry.formula in
  let cone_vars enabled_initial =
    let config =
      { Protocol.default_config with budget = work_budget (); enabled_initial }
    in
    match Protocol.initial_solve config inst with
    | None | Some { Protocol.certified = false; _ } -> None
    | Some { Protocol.assignment = a; _ } ->
      let rng = Ec_util.Rng.create 4242 in
      let sizes =
        List.init 5 (fun _ ->
            let script =
              Ec_cnf.Change.fast_ec_script rng formula ~eliminate:3 ~add:10 ~clause_width:3
            in
            let f' = Ec_cnf.Change.apply_script formula script in
            let p = Ec_cnf.Assignment.extend a (Ec_cnf.Formula.num_vars f') in
            List.length (Ec_core.Fast_ec.simplify f' p).Ec_core.Fast_ec.vars)
      in
      Some (List.fold_left ( + ) 0 sizes)
  in
  match (cone_vars true, cone_vars false) with
  | Some enabled, Some plain ->
    (true, [ ("enabled_cone_vars", enabled); ("plain_cone_vars", plain) ])
  | _ -> (false, [])

(* "incremental" (A8): 25 clause additions to jnh1, each satisfied by
   the planted assignment, absorbed three ways — a from-scratch CDCL
   solve of the grown formula, one incremental session, and a fast-EC
   cone re-solve from the previous solution.  [cone_misses] counts
   cones with no solution (Figure 2 is incomplete by design). *)
let run_incremental ~engine ~scale =
  default_cdcl_only engine @@ fun () ->
  let inst = fixture "jnh1" scale in
  let formula = inst.Ec_instances.Registry.formula in
  match (cdcl_solve formula).Cdcl.outcome with
  | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> (false, [])
  | Ec_sat.Outcome.Sat a0 ->
    let rng = Ec_util.Rng.create 777 in
    let additions =
      List.init 25 (fun _ ->
          Ec_cnf.Change.random_clause_satisfied_by rng inst.Ec_instances.Registry.planted
            ~num_vars:(Ec_cnf.Formula.num_vars formula) ~width:3)
    in
    let (scratch_ok, scratch), _ =
      List.fold_left
        (fun ((ok, total), f) c ->
          let f = Ec_cnf.Formula.add_clause f c in
          let r = cdcl_solve f in
          ((ok && is_sat r.Cdcl.outcome, Ec_util.Budget.add total r.Cdcl.counters), f))
        ((true, Ec_util.Budget.zero), formula) additions
    in
    let inc = Ec_sat.Incremental.create formula in
    let session_ok, session =
      List.fold_left
        (fun (ok, total) c ->
          Ec_sat.Incremental.add_clause inc c;
          let r = Ec_sat.Incremental.solve_with_core ~budget:(work_budget ()) inc in
          ( ok && is_sat r.Ec_sat.Incremental.outcome,
            Ec_util.Budget.add total r.Ec_sat.Incremental.counters ))
        (true, Ec_util.Budget.zero) additions
    in
    let (misses, cone), _, _ =
      List.fold_left
        (fun ((misses, total), f, sol) c ->
          let f = Ec_cnf.Formula.add_clause f c in
          let r = Ec_core.Fast_ec.resolve ~budget:(work_budget ()) f sol in
          let total = Ec_util.Budget.add total r.Ec_core.Fast_ec.counters in
          match r.Ec_core.Fast_ec.solution with
          | Some s -> ((misses, total), f, s)
          | None -> ((misses + 1, total), f, sol))
        ((0, Ec_util.Budget.zero), formula, a0) additions
    in
    ( scratch_ok && session_ok,
      spent "scratch" scratch @ spent "session" session @ spent "cone" cone
      @ [ ("cone_misses", misses) ] )

let builtins =
  [ custom ~name:"stream" ~run:run_stream;
    custom ~name:"tables" ~run:run_tables;
    custom ~name:"optimize" ~run:run_optimize;
    custom ~name:"warmstart" ~run:run_warmstart;
    custom ~name:"cone" ~run:run_cone;
    custom ~name:"incremental" ~run:run_incremental ]

(* One config string per engine, plus the two B&B ablations that
   [optimize] exists for.  The heuristic runs in first-feasible mode —
   its full objective-improvement mode burns the whole flip budget on
   every (satisfiable) cell for no extra information. *)
let default_engines =
  [ "cdcl"; "bnb"; "bnb:greedy_completion=false"; "bnb:branching=first-unfixed";
    "heuristic:stop_at_first_feasible=true"; "maxsat" ]

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

(* A work counter may grow to [baseline * 1.5 + 64]; wall time to
   [baseline * 2.0 + 0.5] s. *)
let judge baseline cell =
  let notes = ref [] in
  let failed = ref false in
  let fail msg = failed := true; notes := msg :: !notes in
  if not cell.ok then fail "not ok";
  (match baseline with
  | None -> notes := "no baseline" :: !notes
  | Some base ->
    List.iter
      (fun (k, v) ->
        match List.assoc_opt k base.work with
        | None -> ()
        | Some bv ->
          let allowed = int_of_float (ceil ((float_of_int bv *. 1.5) +. 64.0)) in
          if v > allowed then
            fail (Printf.sprintf "work regression: %s %d > allowed %d (baseline %d)" k v allowed bv))
      cell.work;
    if cell.cores_online <> base.cores_online then
      notes := "wall gate skipped: cores_online differs from baseline" :: !notes
    else if cell.cores_online <= 1 then
      notes := "wall gate skipped: cores_online <= 1" :: !notes
    else begin
      let allowed = (base.wall_s *. 2.0) +. 0.5 in
      if cell.wall_s > allowed then
        fail
          (Printf.sprintf "wall regression: %.3fs > allowed %.3fs (baseline %.3fs)"
             cell.wall_s allowed base.wall_s)
    end);
  { cell; baseline; passed = not !failed; notes = List.rev !notes }

let gate ~baseline cells = List.map (fun c -> judge (find_baseline baseline c) c) cells
