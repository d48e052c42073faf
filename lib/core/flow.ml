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
  if jobs <> 1 then
    invalid_arg "Flow.apply_change_response: jobs must be 1";
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
  let run () =
    match strategy with
    | Full -> full_resolve budget
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
          ~args:[ ("strategy", strategy_tag strategy) ]
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
