type initial = {
  formula : Ec_cnf.Formula.t;
  assignment : Ec_cnf.Assignment.t;
  enabled : bool;
  flexibility : float;
  solve_time_s : float;
}

let solve_initial ?enable ?(solver = Backend.cdcl) ?budget formula =
  let run () =
    match enable with
    | None -> (
      match (Backend.solve_response ?budget solver formula).Backend.outcome with
      | Ec_sat.Outcome.Sat a -> Some a
      | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> None)
    | Some mode -> (
      let enc = Encode.of_formula formula in
      let _info = Enabling.add mode enc in
      let r = Backend.solve_model_response ?budget solver (Encode.model enc) in
      (* The model-level answer is certified by Backend; re-check the
         decoded assignment against the original CNF so a decode bug
         cannot smuggle in an unsatisfying "solution" either. *)
      match Encode.decode enc r.Backend.solution with
      | Some a -> (
        match Certify.check_model formula a with Ok () -> Some a | Error _ -> None)
      | None -> None)
  in
  let result, elapsed = Ec_util.Stopwatch.time run in
  match result with
  | None -> None
  | Some a ->
    Some
      { formula;
        assignment = a;
        enabled = enable <> None;
        flexibility = Enabling.flexibility_score formula a;
        solve_time_s = elapsed }

type resolve_strategy =
  | Fast
  | Preserve of Preserving.engine
  | Full

(* How often the incomplete fast path had to hand over to a full
   re-solve (unsatisfiable cone, exhausted budget, failed merge). *)
let fast_fallbacks = Ec_util.Metrics.counter "flow.fast_fallback"

let strategy_tag = function
  | Fast -> "fast"
  | Preserve _ -> "preserve"
  | Full -> "full"

type updated = {
  new_formula : Ec_cnf.Formula.t;
  new_assignment : Ec_cnf.Assignment.t;
  strategy : resolve_strategy;
  preserved_fraction : float;
  sub_instance_size : (int * int) option;
  resolve_time_s : float;
  reason : Ec_util.Budget.reason;
  counters : Ec_util.Budget.counters;
}

type response = {
  result : updated option;
  reason : Ec_util.Budget.reason;
  counters : Ec_util.Budget.counters;
}

let apply_change_response ?(strategy = Fast) ?(solver = Backend.cdcl)
    ?(budget = Ec_util.Budget.unlimited) ?(jobs = 1) initial script =
  let new_formula = Ec_cnf.Change.apply_script initial.formula script in
  let reference =
    Ec_cnf.Assignment.extend initial.assignment (Ec_cnf.Formula.num_vars new_formula)
  in
  let full_resolve remaining =
    (* Warm-started full solve: the old solution seeds phase saving
       where the backend supports it, and refutes a wrong UNSAT. *)
    let r = Backend.solve_response ~budget:remaining ~hint:reference solver new_formula in
    let outcome =
      match r.Backend.outcome with
      | Ec_sat.Outcome.Sat a -> Some (a, None)
      | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> None
    in
    (outcome, r.Backend.reason, r.Backend.counters)
  in
  (* The paper's Figure 2 decision — fast cone re-solve vs. full
     re-solve — made empirically per instance: both run concurrently
     under one shared cancellation flag, and whichever produces a
     certified answer first wins.  The full side gets [jobs - 1]
     diversified warm-started racers.  A racer answers
     [`Sat]/[`Unsat] (decisive) or [`Indecisive] (cone unsatisfiable,
     exhausted, refuted verdict, …). *)
  let race_fast_vs_full () =
    let shared, _flag = Ec_util.Budget.with_cancel budget in
    let fast_side () =
      Ec_util.Fault.maybe_delay "portfolio.domain";
      Ec_util.Fault.maybe_raise "portfolio.racer";
      let r = Fast_ec.resolve ~backend:solver ~budget:shared new_formula reference in
      match r.Fast_ec.solution with
      | Some a ->
        ( `Sat (a, Some (r.Fast_ec.sub_vars_count, r.Fast_ec.sub_clauses_count)),
          r.Fast_ec.reason,
          r.Fast_ec.counters )
      | None -> (`Indecisive, r.Fast_ec.reason, r.Fast_ec.counters)
    in
    let full_racer stage () =
      Ec_util.Fault.maybe_delay "portfolio.domain";
      Ec_util.Fault.maybe_raise "portfolio.racer";
      let r = Backend.solve_response ~budget:shared ~hint:reference stage new_formula in
      match r.Backend.outcome with
      | Ec_sat.Outcome.Sat a -> (`Sat (a, None), r.Backend.reason, r.Backend.counters)
      | Ec_sat.Outcome.Unsat -> (`Unsat, r.Backend.reason, r.Backend.counters)
      | Ec_sat.Outcome.Unknown reason -> (`Indecisive, reason, r.Backend.counters)
    in
    let racers =
      fast_side
      :: (Backend.default_portfolio ~prefer:solver ~jobs:(max 1 (jobs - 1)) ()
         |> List.map full_racer)
    in
    let race =
      Ec_util.Pool.with_pool (List.length racers) (fun pool ->
          Ec_util.Pool.race pool
            ~accept:(fun (v, _, _) ->
              match v with `Sat _ | `Unsat -> true | `Indecisive -> false)
            ~on_winner:(fun _ -> Ec_util.Budget.cancel shared)
            racers)
    in
    let total =
      Array.fold_left
        (fun acc -> function
          | Ec_util.Pool.Returned (_, _, c) -> Ec_util.Budget.add acc c
          | Ec_util.Pool.Raised _ -> acc)
        Ec_util.Budget.zero race.Ec_util.Pool.results
    in
    match race.Ec_util.Pool.winner with
    | Some i -> (
      match race.Ec_util.Pool.results.(i) with
      | Ec_util.Pool.Returned (`Sat (a, sub), reason, _) -> (Some (a, sub), reason, total)
      | Ec_util.Pool.Returned (`Unsat, reason, _) -> (None, reason, total)
      | Ec_util.Pool.Returned (`Indecisive, _, _) | Ec_util.Pool.Raised _ -> assert false)
    | None ->
      (* No decisive racer; report the most informative reason. *)
      let reasons =
        Array.to_list race.Ec_util.Pool.results
        |> List.map (function
             | Ec_util.Pool.Returned (_, reason, _) -> reason
             | Ec_util.Pool.Raised e ->
               Ec_util.Budget.Engine_failure ("flow-racer", Printexc.to_string e))
      in
      let reason =
        match
          List.find_opt (fun r -> r <> Ec_util.Budget.Cancelled) reasons
        with
        | Some r -> r
        | None -> Ec_util.Budget.Cancelled
      in
      (None, reason, total)
  in
  let run () =
    match strategy with
    | Full when jobs > 1 -> (
      let pr =
        Backend.solve_portfolio ~budget ~hint:reference
          (Backend.default_portfolio ~prefer:solver ~jobs ())
          new_formula
      in
      let r = pr.Backend.response in
      match r.Backend.outcome with
      | Ec_sat.Outcome.Sat a -> (Some (a, None), r.Backend.reason, r.Backend.counters)
      | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ ->
        (None, r.Backend.reason, r.Backend.counters))
    | Full -> full_resolve budget
    | Fast when jobs > 1 -> race_fast_vs_full ()
    | Fast -> (
      let r = Fast_ec.resolve ~backend:solver ~budget new_formula reference in
      match r.Fast_ec.solution with
      | Some a ->
        ( Some (a, Some (r.Fast_ec.sub_vars_count, r.Fast_ec.sub_clauses_count)),
          r.Fast_ec.reason,
          r.Fast_ec.counters )
      | None ->
        (* Graceful degradation: the cone was unsatisfiable (the fast
           algorithm is incomplete), its solve ran out of allowance, or
           its merge failed certification — fall back to a full
           re-solve under whatever budget is left.  On an exhausted
           budget the full solve trips at its first check, so the
           fallback costs at most one tick. *)
        Ec_util.Metrics.incr fast_fallbacks;
        let remaining = Ec_util.Budget.consume budget r.Fast_ec.counters in
        let outcome, reason, full_counters = full_resolve remaining in
        (outcome, reason, Ec_util.Budget.add r.Fast_ec.counters full_counters))
    | Preserve engine -> (
      (* The preserving engines drive CDCL / branch & bound directly
         (not through Backend's containment), so the exception wall is
         here — and so is the per-engine metrics recording the
         Backend entry points would otherwise do. *)
      match Preserving.resolve ~engine ~budget new_formula ~reference with
      | r -> (
        Backend.observe_response ~engine:"preserving" r.Preserving.counters;
        match r.Preserving.solution with
        | Some a -> (Some (a, None), r.Preserving.reason, r.Preserving.counters)
        | None -> (None, r.Preserving.reason, r.Preserving.counters))
      | exception exn ->
        ( None,
          Ec_util.Budget.Engine_failure ("preserving", Printexc.to_string exn),
          Ec_util.Budget.zero ))
  in
  let (result, reason, counters), elapsed =
    Ec_util.Stopwatch.time (fun () ->
        Ec_util.Trace.span ~cat:"flow"
          ~args:
            [ ("strategy", strategy_tag strategy); ("jobs", string_of_int jobs) ]
          ~result_args:(fun (result, reason, _) ->
            [ ("solved", string_of_bool (result <> None));
              ("reason", Ec_util.Budget.reason_to_string reason) ])
          "flow.apply_change" run)
  in
  (* Certification wall: no assignment leaves the flow unchecked.  Each
     strategy already certifies internally; this final clause-by-clause
     pass (O(formula)) also covers the merge bookkeeping above it. *)
  let result, reason =
    match result with
    | None -> (None, reason)
    | Some (a, sub) -> (
      match Certify.check_model new_formula a with
      | Error detail ->
        (None, Ec_util.Budget.Engine_failure ("flow", "result certification failed: " ^ detail))
      | Ok () ->
        ( Some
            { new_formula;
              new_assignment = a;
              strategy;
              preserved_fraction =
                Ec_cnf.Assignment.preserved_fraction ~old_assignment:reference a;
              sub_instance_size = sub;
              resolve_time_s = elapsed;
              reason;
              counters },
          reason ))
  in
  { result; reason; counters }
