(* Observability: each certification pass is a span under --trace and
   a sample of the shared latency histogram under --metrics, so a
   profile shows how much of a solve goes to re-validation.  The
   histogram is fed only by the leaf checks (never by wrappers like
   [outcome]) so its sum is not double-counted. *)
let latency = Ec_util.Metrics.histogram "certify.latency_s"

let failures = Ec_util.Metrics.counter "certify.failures"

let timed name f =
  if not (Ec_util.Trace.enabled () || Ec_util.Metrics.enabled ()) then f ()
  else
    Ec_util.Trace.span ~cat:"certify" name (fun () ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        Ec_util.Metrics.observe latency (Unix.gettimeofday () -. t0);
        (match r with Error _ -> Ec_util.Metrics.incr failures | Ok () -> ());
        r)

let check_model f a =
  timed "certify.check_model" @@ fun () ->
  let n = Ec_cnf.Formula.num_vars f in
  if Ec_cnf.Assignment.num_vars a < n then
    Error
      (Printf.sprintf "model covers %d of %d variables" (Ec_cnf.Assignment.num_vars a) n)
  else
    match Ec_cnf.Assignment.unsatisfied_clauses a f with
    | [] -> Ok ()
    | i :: _ ->
      Error
        (Printf.sprintf "clause %d %s not satisfied" i
           (Ec_cnf.Clause.to_string (Ec_cnf.Formula.clause f i)))

let check_solution ?(eps = 1e-6) model (s : Ec_ilp.Solution.t) =
  timed "certify.check_solution" @@ fun () ->
  if not (Ec_ilp.Solution.has_point s) then Ok ()
  else
    let values = s.Ec_ilp.Solution.values in
    if Array.length values <> Ec_ilp.Model.num_vars model then
      Error
        (Printf.sprintf "solution point has %d values for %d model variables"
           (Array.length values) (Ec_ilp.Model.num_vars model))
    else (
      match Ec_ilp.Validate.check ~eps model values with
      | v :: _ -> Error (Ec_ilp.Validate.violation_to_string v)
      | [] ->
        let recomputed = Ec_ilp.Validate.objective_value model values in
        if
          abs_float (recomputed -. s.Ec_ilp.Solution.objective)
          > eps *. (1.0 +. abs_float recomputed)
        then
          Error
            (Printf.sprintf "objective mismatch: reported %g, recomputed %g"
               s.Ec_ilp.Solution.objective recomputed)
        else Ok ())

let check_core ~soft ~aux_lo ~aux_hi core =
  timed "certify.check_core" @@ fun () ->
  if core = [] then Error "empty core"
  else
    let ok l =
      List.mem l soft
      || (let v = Ec_cnf.Lit.var l in
          v >= aux_lo && v < aux_hi && not (Ec_cnf.Lit.is_positive l))
    in
    match List.find_opt (fun l -> not (ok l)) core with
    | None -> Ok ()
    | Some l ->
      Error
        (Printf.sprintf "core literal %s is neither soft nor a relaxation bound"
           (Ec_cnf.Lit.to_string l))

let check_maxsat hard (r : Ec_sat.Maxsat.result) =
  timed "certify.check_maxsat" @@ fun () ->
  let soft = r.Ec_sat.Maxsat.soft in
  let aux_lo = r.Ec_sat.Maxsat.aux_lo and aux_hi = r.Ec_sat.Maxsat.aux_hi in
  let rec first_error = function
    | [] -> Ok ()
    | check :: rest -> ( match check () with Ok () -> first_error rest | e -> e)
  in
  let cores_ok () =
    let rec go = function
      | [] -> Ok ()
      | c :: rest -> (
        match check_core ~soft ~aux_lo ~aux_hi c with Ok () -> go rest | e -> e)
    in
    go r.Ec_sat.Maxsat.cores
  in
  let lb_matches_cores () =
    if r.Ec_sat.Maxsat.lower_bound = List.length r.Ec_sat.Maxsat.cores then Ok ()
    else
      Error
        (Printf.sprintf "lower bound %d but %d cores extracted"
           r.Ec_sat.Maxsat.lower_bound
           (List.length r.Ec_sat.Maxsat.cores))
  in
  let model_ok ~exact (b : Ec_sat.Maxsat.best) () =
    match check_model hard b.Ec_sat.Maxsat.model with
    | Error _ as e -> e
    | Ok () ->
      let recount = Ec_sat.Maxsat.cost_of soft b.Ec_sat.Maxsat.model in
      if recount <> b.Ec_sat.Maxsat.cost then
        Error
          (Printf.sprintf "claimed cost %d, recounted %d" b.Ec_sat.Maxsat.cost recount)
      else if exact && b.Ec_sat.Maxsat.cost <> r.Ec_sat.Maxsat.lower_bound then
        Error
          (Printf.sprintf "optimum cost %d does not meet the proved lower bound %d"
             b.Ec_sat.Maxsat.cost r.Ec_sat.Maxsat.lower_bound)
      else if (not exact) && b.Ec_sat.Maxsat.cost < r.Ec_sat.Maxsat.lower_bound then
        Error
          (Printf.sprintf "incumbent cost %d below the proved lower bound %d"
             b.Ec_sat.Maxsat.cost r.Ec_sat.Maxsat.lower_bound)
      else Ok ()
  in
  match r.Ec_sat.Maxsat.verdict with
  | Ec_sat.Maxsat.Optimum b ->
    first_error [ model_ok ~exact:true b; lb_matches_cores; cores_ok ]
  | Ec_sat.Maxsat.Hard_unsat -> first_error [ lb_matches_cores; cores_ok ]
  | Ec_sat.Maxsat.Stopped { incumbent = Some b; _ } ->
    first_error [ model_ok ~exact:false b; lb_matches_cores; cores_ok ]
  | Ec_sat.Maxsat.Stopped { incumbent = None; _ } ->
    first_error [ lb_matches_cores; cores_ok ]

let refutes_unsat f ~witness =
  let n = Ec_cnf.Formula.num_vars f in
  let w =
    if Ec_cnf.Assignment.num_vars witness < n then Ec_cnf.Assignment.extend witness n
    else witness
  in
  Ec_cnf.Assignment.satisfies w f

let outcome ~engine ?witness f (o : Ec_sat.Outcome.t) =
  match o with
  | Ec_sat.Outcome.Sat a -> (
    match check_model f a with
    | Ok () -> o
    | Error detail ->
      Ec_sat.Outcome.Unknown (Ec_util.Budget.Engine_failure (engine, detail)))
  | Ec_sat.Outcome.Unsat -> (
    match witness with
    | Some w when refutes_unsat f ~witness:w ->
      Ec_sat.Outcome.Unknown
        (Ec_util.Budget.Engine_failure (engine, "unsat verdict refuted by known witness"))
    | Some _ | None -> o)
  | Ec_sat.Outcome.Unknown _ -> o
