type t =
  | Ilp_exact of Ec_ilpsolver.Bnb.options
  | Ilp_heuristic of Ec_ilpsolver.Heuristic.options
  | Cdcl of Ec_sat.Cdcl.options
  | Maxsat of Ec_sat.Maxsat.options

let ilp_exact = Ilp_exact Ec_ilpsolver.Bnb.default_options

let ilp_heuristic =
  Ilp_heuristic { Ec_ilpsolver.Heuristic.default_options with stop_at_first_feasible = true }

let cdcl = Cdcl Ec_sat.Cdcl.default_options

let maxsat = Maxsat Ec_sat.Maxsat.default_options

let name = function
  | Ilp_exact _ -> "ilp-bnb"
  | Ilp_heuristic _ -> "ilp-heuristic"
  | Cdcl _ -> "cdcl"
  | Maxsat _ -> "maxsat"

let of_config = function
  | Engine_config.Cdcl o -> Cdcl o
  | Engine_config.Bnb o -> Ilp_exact o
  | Engine_config.Heuristic o -> Ilp_heuristic o
  | Engine_config.Maxsat o -> Maxsat o

let to_config = function
  | Cdcl o -> Engine_config.Cdcl o
  | Ilp_exact o -> Engine_config.Bnb o
  | Ilp_heuristic o -> Engine_config.Heuristic o
  | Maxsat o -> Engine_config.Maxsat o

let with_phase_hint t hint =
  match t with
  | Cdcl options -> Cdcl { options with phase_hint = Some hint }
  | Maxsat options ->
    Maxsat
      { options with
        Ec_sat.Maxsat.cdcl = { options.Ec_sat.Maxsat.cdcl with phase_hint = Some hint }
      }
  | Ilp_exact _ | Ilp_heuristic _ -> t

let with_budget t budget =
  match t with
  | Ilp_exact o ->
    Ilp_exact { o with Ec_ilpsolver.Bnb.budget = Ec_util.Budget.combine budget o.budget }
  | Ilp_heuristic o ->
    Ilp_heuristic
      { o with Ec_ilpsolver.Heuristic.budget = Ec_util.Budget.combine budget o.budget }
  | Cdcl o -> Cdcl { o with Ec_sat.Cdcl.budget = Ec_util.Budget.combine budget o.budget }
  | Maxsat o ->
    Maxsat
      { o with Ec_sat.Maxsat.budget = Ec_util.Budget.combine budget o.Ec_sat.Maxsat.budget }

type response = {
  outcome : Ec_sat.Outcome.t;
  reason : Ec_util.Budget.reason;
  counters : Ec_util.Budget.counters;
  engine : string;
}

type model_response = {
  solution : Ec_ilp.Solution.t;
  reason : Ec_util.Budget.reason;
  counters : Ec_util.Budget.counters;
  engine : string;
}

(* --- observability ----------------------------------------------- *)

(* Per-engine spend, recorded once per engine-level solve from the
   same [Budget.counters] record the response carries — so a metrics
   snapshot's per-engine sums reconcile exactly with the summed
   counters a flow response reports.  "decisions" is [spent_nodes]
   (CDCL decisions / B&B nodes). *)
let observe_response ~engine (c : Ec_util.Budget.counters) =
  if Ec_util.Metrics.enabled () then begin
    let m suffix = Ec_util.Metrics.counter ("solve." ^ engine ^ "." ^ suffix) in
    Ec_util.Metrics.incr (m "calls");
    Ec_util.Metrics.add (m "conflicts") c.Ec_util.Budget.spent_conflicts;
    Ec_util.Metrics.add (m "decisions") c.Ec_util.Budget.spent_nodes;
    Ec_util.Metrics.add (m "restarts") c.Ec_util.Budget.spent_restarts;
    Ec_util.Metrics.add (m "iterations") c.Ec_util.Budget.spent_iterations
  end

let span_counter_args (c : Ec_util.Budget.counters) =
  [ ("conflicts", string_of_int c.Ec_util.Budget.spent_conflicts);
    ("decisions", string_of_int c.Ec_util.Budget.spent_nodes);
    ("wall_s", Printf.sprintf "%.6f" c.Ec_util.Budget.spent_wall_s) ]

let maybe_recover recover_dc formula outcome =
  match outcome with
  | Ec_sat.Outcome.Sat a when recover_dc ->
    (* eclint: allow FP001 — pre-certification transform: every path
       through here still crosses the Certify wall in solve_response *)
    Ec_sat.Outcome.Sat (Ec_sat.Minimize.recover_dc formula a)
  | Ec_sat.Outcome.Sat _ | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> outcome

(* --- exception containment -------------------------------------- *)

(* A raising engine must not take the whole flow down: the exception is
   caught at this boundary and reported as the control-plane reason
   [Engine_failure], which callers treat like any local exhaustion.
   The stochastic engine gets a bounded number of fresh attempts under
   a reseeded RNG first — a crash in randomized search is often
   seed-local. *)
let max_heuristic_retries = 2

let reseed seed attempt = seed lxor (0x9E3779B9 * attempt)

let with_heuristic_seed t attempt =
  match t with
  | Ilp_heuristic o ->
    Ilp_heuristic
      { o with Ec_ilpsolver.Heuristic.seed = reseed o.Ec_ilpsolver.Heuristic.seed attempt }
  | Ilp_exact _ | Cdcl _ | Maxsat _ -> t

let failure_counters started =
  { Ec_util.Budget.zero with spent_wall_s = Unix.gettimeofday () -. started }

(* Run [attempt t], containing any exception as an [Engine_failure]
   triple from [on_failure]; [Ilp_heuristic] is retried with a fresh
   seed before giving up. *)
let guarded ~attempt ~on_failure t =
  let started = Unix.gettimeofday () in
  let rec go k t =
    match attempt t with
    | r -> r
    | exception exn ->
      if k < max_heuristic_retries && (match t with Ilp_heuristic _ -> true | _ -> false)
      then go (k + 1) (with_heuristic_seed t (k + 1))
      else
        on_failure
          (Ec_util.Budget.Engine_failure (name t, Printexc.to_string exn))
          (failure_counters started)
  in
  go 0 t

let outcome_tag = function
  | Ec_sat.Outcome.Sat _ -> "sat"
  | Ec_sat.Outcome.Unsat -> "unsat"
  | Ec_sat.Outcome.Unknown _ -> "unknown"

let solve_response ?(recover_dc = true) ?budget ?hint t formula =
  let t = match budget with None -> t | Some b -> with_budget t b in
  let t = match hint with None -> t | Some h -> with_phase_hint t h in
  let respond outcome reason counters =
    { outcome; reason; counters; engine = name t }
  in
  let run () =
  if Ec_cnf.Formula.has_empty_clause formula then
    respond Ec_sat.Outcome.Unsat Ec_util.Budget.Completed Ec_util.Budget.zero
  else begin
    let attempt = function
      | Cdcl options ->
        let r = Ec_sat.Cdcl.solve_response ~options formula in
        ( maybe_recover recover_dc formula r.Ec_sat.Cdcl.outcome,
          r.Ec_sat.Cdcl.reason,
          r.Ec_sat.Cdcl.counters )
      | Maxsat options -> (
        (* Decision solving through the core-guided engine: no soft
           literals, so the incumbent probe decides.  A [Corrupt_core]
           escapes to [guarded] and is contained as an engine failure.
           The engine's own verdicts are certified here — model, claimed
           cost and core validity ([Certify.check_maxsat]) — before they
           become an [Outcome] at all. *)
        let r = Ec_sat.Maxsat.solve ~options ~soft:[] formula in
        match Certify.check_maxsat formula r with
        | Error detail ->
          let reason = Ec_util.Budget.Engine_failure ("maxsat", detail) in
          (Ec_sat.Outcome.Unknown reason, reason, r.Ec_sat.Maxsat.counters)
        | Ok () -> (
          match r.Ec_sat.Maxsat.verdict with
          | Ec_sat.Maxsat.Optimum b ->
            ( maybe_recover recover_dc formula (Ec_sat.Outcome.Sat b.Ec_sat.Maxsat.model),
              Ec_util.Budget.Completed,
              r.Ec_sat.Maxsat.counters )
          | Ec_sat.Maxsat.Hard_unsat ->
            (Ec_sat.Outcome.Unsat, Ec_util.Budget.Completed, r.Ec_sat.Maxsat.counters)
          | Ec_sat.Maxsat.Stopped { reason; _ } ->
            (Ec_sat.Outcome.Unknown reason, reason, r.Ec_sat.Maxsat.counters)))
      | Ilp_exact options ->
        let enc = Encode.of_formula formula in
        let r = Ec_ilpsolver.Bnb.solve_decision_response ~options (Encode.model enc) in
        let solution = r.Ec_ilpsolver.Bnb.solution in
        let outcome =
          match solution.Ec_ilp.Solution.status with
          | Ec_ilp.Solution.Optimal | Ec_ilp.Solution.Feasible -> (
            match Encode.decode enc solution with
            | Some a -> Ec_sat.Outcome.Sat a
            | None -> Ec_sat.Outcome.Unknown Ec_util.Budget.Completed)
          | Ec_ilp.Solution.Infeasible -> Ec_sat.Outcome.Unsat
          | Ec_ilp.Solution.Unknown -> Ec_sat.Outcome.Unknown r.Ec_ilpsolver.Bnb.reason
        in
        (outcome, r.Ec_ilpsolver.Bnb.reason, r.Ec_ilpsolver.Bnb.counters)
      | Ilp_heuristic options ->
        let enc = Encode.of_formula formula in
        let r = Ec_ilpsolver.Heuristic.solve_response ~options (Encode.model enc) in
        let outcome =
          match Encode.decode enc r.Ec_ilpsolver.Heuristic.solution with
          | Some a -> Ec_sat.Outcome.Sat a
          | None -> Ec_sat.Outcome.Unknown r.Ec_ilpsolver.Heuristic.reason
        in
        (outcome, r.Ec_ilpsolver.Heuristic.reason, r.Ec_ilpsolver.Heuristic.counters)
    in
    let outcome, reason, counters =
      guarded ~attempt
        ~on_failure:(fun reason counters -> (Ec_sat.Outcome.Unknown reason, reason, counters))
        t
    in
    (* Certification: a Sat model leaves this module only after an
       independent clause-by-clause re-check (O(formula), no extra
       solve), and an Unsat only if the hint does not satisfy the
       formula; a failed certificate is demoted to an honest Unknown. *)
    match (outcome, Certify.outcome ~engine:(name t) ?witness:hint formula outcome) with
    | (Ec_sat.Outcome.Sat _ | Ec_sat.Outcome.Unsat), (Ec_sat.Outcome.Unknown r as demoted) ->
      respond demoted r counters
    | _, certified -> respond certified reason counters
  end
  in
  let r =
    Ec_util.Trace.span ~cat:"solve"
      ~args:[ ("engine", name t) ]
      ~result_args:(fun (r : response) ->
        ("outcome", outcome_tag r.outcome)
        :: ("reason", Ec_util.Budget.reason_to_string r.reason)
        :: span_counter_args r.counters)
      "backend.solve" run
  in
  observe_response ~engine:r.engine r.counters;
  r

let solve_model_response ?budget t model =
  let t = match budget with None -> t | Some b -> with_budget t b in
  let run () =
  let of_bnb (r : Ec_ilpsolver.Bnb.response) =
    { solution = r.Ec_ilpsolver.Bnb.solution;
      reason = r.Ec_ilpsolver.Bnb.reason;
      counters = r.Ec_ilpsolver.Bnb.counters;
      engine = "ilp-bnb" }
  in
  let attempt = function
    | Ilp_exact options -> of_bnb (Ec_ilpsolver.Bnb.solve_response ~options model)
    | Ilp_heuristic options ->
      let r = Ec_ilpsolver.Heuristic.solve_response ~options model in
      { solution = r.Ec_ilpsolver.Heuristic.solution;
        reason = r.Ec_ilpsolver.Heuristic.reason;
        counters = r.Ec_ilpsolver.Heuristic.counters;
        engine = name t }
    | Cdcl options -> (
      (* Clause-like models (every encoding in this project) translate
         exactly to CNF; general rows fall back to branch & bound. *)
      match Cnfize.of_model model with
      | exception Cnfize.Unsupported _ ->
        of_bnb
          (Ec_ilpsolver.Bnb.solve_response
             ~options:
               { Ec_ilpsolver.Bnb.default_options with budget = options.Ec_sat.Cdcl.budget }
             model)
      | cnf ->
        let r = Ec_sat.Cdcl.solve_response ~options cnf.Cnfize.formula in
        let solution =
          match r.Ec_sat.Cdcl.outcome with
          | Ec_sat.Outcome.Sat a ->
            let values = Cnfize.point_of_assignment cnf a in
            let objective = Ec_ilp.Validate.objective_value model values in
            { Ec_ilp.Solution.status = Ec_ilp.Solution.Feasible; values; objective }
          | Ec_sat.Outcome.Unsat -> Ec_ilp.Solution.infeasible
          | Ec_sat.Outcome.Unknown _ -> Ec_ilp.Solution.unknown
        in
        { solution;
          reason = r.Ec_sat.Cdcl.reason;
          counters = r.Ec_sat.Cdcl.counters;
          engine = name t })
    | Maxsat options -> (
      (* A uniform-magnitude objective over binaries is an unweighted
         MaxSAT instance: each term becomes one soft literal (the
         polarity the objective rewards), and an [Optimum] verdict is a
         proved [Optimal] status — something the plain CDCL route can
         never claim.  Non-uniform weights or non-clausal rows fall
         back to branch & bound. *)
      let bnb_fallback () =
        of_bnb
          (Ec_ilpsolver.Bnb.solve_response
             ~options:
               { Ec_ilpsolver.Bnb.default_options with
                 budget = options.Ec_sat.Maxsat.budget
               }
             model)
      in
      let sense, expr = Ec_ilp.Model.objective model in
      let terms = Ec_ilp.Linexpr.terms expr in
      let uniform =
        match terms with
        | [] -> true
        | (c0, _) :: _ ->
          abs_float c0 > 0.0
          && List.for_all (fun (c, _) -> abs_float c = abs_float c0) terms
      in
      match Cnfize.of_model model with
      | exception Cnfize.Unsupported _ -> bnb_fallback ()
      | _ when not uniform -> bnb_fallback ()
      | cnf -> (
        (* Model id [i] mirrors CNF variable [i + 1].  The objective
           rewards a positive-coefficient variable when maximizing, a
           negative-coefficient one when minimizing. *)
        let soft =
          List.map
            (fun (c, id) ->
              let rewarded =
                match sense with
                | Ec_ilp.Model.Maximize -> c > 0.0
                | Ec_ilp.Model.Minimize -> c < 0.0
              in
              Ec_cnf.Lit.make (id + 1) rewarded)
            terms
        in
        let r = Ec_sat.Maxsat.solve ~options ~soft cnf.Cnfize.formula in
        match Certify.check_maxsat cnf.Cnfize.formula r with
        | Error detail ->
          let reason = Ec_util.Budget.Engine_failure ("maxsat", detail) in
          { solution = Ec_ilp.Solution.unknown;
            reason;
            counters = r.Ec_sat.Maxsat.counters;
            engine = name t }
        | Ok () ->
          let point (b : Ec_sat.Maxsat.best) status =
            let values = Cnfize.point_of_assignment cnf b.Ec_sat.Maxsat.model in
            let objective = Ec_ilp.Validate.objective_value model values in
            { Ec_ilp.Solution.status; values; objective }
          in
          let solution, reason =
            match r.Ec_sat.Maxsat.verdict with
            | Ec_sat.Maxsat.Optimum b ->
              (point b Ec_ilp.Solution.Optimal, Ec_util.Budget.Completed)
            | Ec_sat.Maxsat.Hard_unsat ->
              (Ec_ilp.Solution.infeasible, Ec_util.Budget.Completed)
            | Ec_sat.Maxsat.Stopped { reason; incumbent = Some b } ->
              (point b Ec_ilp.Solution.Feasible, reason)
            | Ec_sat.Maxsat.Stopped { reason; incumbent = None } ->
              (Ec_ilp.Solution.unknown, reason)
          in
          { solution; reason; counters = r.Ec_sat.Maxsat.counters; engine = name t }))
  in
  let r =
    guarded ~attempt
      ~on_failure:(fun reason counters ->
        { solution = Ec_ilp.Solution.unknown; reason; counters; engine = name t })
      t
  in
  (* Certification: rows re-evaluated and the objective recomputed at
     the returned point; a failed certificate never leaves as a
     Feasible/Optimal claim. *)
  match Certify.check_solution model r.solution with
  | Ok () -> r
  | Error detail ->
    let reason = Ec_util.Budget.Engine_failure (r.engine, detail) in
    { r with solution = Ec_ilp.Solution.unknown; reason }
  in
  let r =
    Ec_util.Trace.span ~cat:"solve"
      ~args:[ ("engine", name t) ]
      ~result_args:(fun (r : model_response) ->
        ("reason", Ec_util.Budget.reason_to_string r.reason)
        :: span_counter_args r.counters)
      "backend.solve_model" run
  in
  observe_response ~engine:r.engine r.counters;
  r
