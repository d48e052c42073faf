type engine =
  | Ilp_objective of Ec_ilpsolver.Bnb.options
  | Ilp_iterative of Ec_ilpsolver.Bnb.options
  | Sat_cardinality of Ec_sat.Cdcl.options
  | Sat_maxsat of Ec_sat.Maxsat.options

let default_engine = Ilp_objective Ec_ilpsolver.Bnb.default_options

type work = {
  probes : int;
  clauses_encoded : int;
  cores : int;
}

let no_work = { probes = 0; clauses_encoded = 0; cores = 0 }

type result = {
  solution : Ec_cnf.Assignment.t option;
  preserved : int;
  total : int;
  optimal : bool;
  reason : Ec_util.Budget.reason;
  counters : Ec_util.Budget.counters;
  work : work;
}

let preserved_fraction r =
  if r.total = 0 then 1.0 else float_of_int r.preserved /. float_of_int r.total

let agreement_count reference a =
  Ec_cnf.Assignment.preserved_count ~old_assignment:reference a

let check_pins n pins =
  List.iter
    (fun v ->
      if v < 1 || v > n then invalid_arg "Preserving.resolve: pinned variable out of range")
    pins

let reference_value reference v =
  if v <= Ec_cnf.Assignment.num_vars reference then Ec_cnf.Assignment.value reference v
  else Ec_cnf.Assignment.Dc

(* --- ILP engine (the paper's §7 formulation) --------------------- *)

(* The preservation objective as linear terms over the phase encoding:
   Zi = pi·xi + p(n+i)·x(n+i), with DC preserved as "both phases off"
   (1 - xi - x(n+i)).  Shared by the one-shot objective engine and the
   iterative decision-probe baseline. *)
let objective_terms enc ~compared ~w reference =
  let terms = ref [] in
  let constant = ref 0.0 in
  for v = 1 to compared do
    match Ec_cnf.Assignment.value reference v with
    | Ec_cnf.Assignment.True -> terms := (w v, Encode.pos_var enc v) :: !terms
    | Ec_cnf.Assignment.False -> terms := (w v, Encode.neg_var enc v) :: !terms
    | Ec_cnf.Assignment.Dc ->
      constant := !constant +. w v;
      terms := ((-.w v), Encode.pos_var enc v) :: ((-.w v), Encode.neg_var enc v) :: !terms
  done;
  (!terms, !constant)

let add_pin_rows enc model pins reference =
  List.iter
    (fun v ->
      let fix id value =
        Ec_ilp.Model.add_constr model
          ~name:(Printf.sprintf "pin%d" v)
          (Ec_ilp.Linexpr.var id) Ec_ilp.Model.Eq value
      in
      match reference_value reference v with
      | Ec_cnf.Assignment.True -> fix (Encode.pos_var enc v) 1.0
      | Ec_cnf.Assignment.False -> fix (Encode.neg_var enc v) 1.0
      | Ec_cnf.Assignment.Dc ->
        fix (Encode.pos_var enc v) 0.0;
        fix (Encode.neg_var enc v) 0.0)
    pins

let resolve_ilp options pins weights budget f ~reference =
  let enc = Encode.of_formula f in
  let model = Encode.model enc in
  let n = Encode.num_cnf_vars enc in
  check_pins n pins;
  let compared = min n (Ec_cnf.Assignment.num_vars reference) in
  let weight_of = Hashtbl.create (List.length weights) in
  List.iter
    (fun (v, w) ->
      if v < 1 || v > n then invalid_arg "Preserving.resolve: weighted variable out of range";
      if w < 0.0 then invalid_arg "Preserving.resolve: negative weight";
      Hashtbl.replace weight_of v w)
    weights;
  let w v = try Hashtbl.find weight_of v with Not_found -> 1.0 in
  let terms, constant = objective_terms enc ~compared ~w reference in
  Ec_ilp.Model.set_objective model Ec_ilp.Model.Maximize
    (Ec_ilp.Linexpr.of_terms ~constant terms);
  add_pin_rows enc model pins reference;
  let options =
    { options with
      Ec_ilpsolver.Bnb.budget = Ec_util.Budget.combine budget options.Ec_ilpsolver.Bnb.budget
    }
  in
  let r = Ec_ilpsolver.Bnb.solve_response ~options model in
  let solution = r.Ec_ilpsolver.Bnb.solution in
  let work = { probes = 1; clauses_encoded = Ec_ilp.Model.num_constrs model; cores = 0 } in
  match Encode.decode enc solution with
  | None ->
    { solution = None;
      preserved = 0;
      total = compared;
      optimal = r.Ec_ilpsolver.Bnb.reason = Ec_util.Budget.Completed;
      reason = r.Ec_ilpsolver.Bnb.reason;
      counters = r.Ec_ilpsolver.Bnb.counters;
      work }
  | Some a ->
    { solution = Some a;
      preserved = agreement_count reference a;
      total = compared;
      optimal = solution.Ec_ilp.Solution.status = Ec_ilp.Solution.Optimal;
      reason = r.Ec_ilpsolver.Bnb.reason;
      counters = r.Ec_ilpsolver.Bnb.counters;
      work }

(* --- iterative ILP baseline -------------------------------------- *)

(* Optimization by repeated decision probes: "is there a solution
   preserving at least k?" with the objective restated as a hard row
   [Σ Zi >= k], the model re-encoded from scratch for every probe —
   deliberately no state carried between probes.  This is the
   rebuild-everything baseline the incremental engines are measured
   against ({!work} counts what the rebuilding costs); it reaches the
   same optimum, the long way. *)
let resolve_ilp_iterative options pins budget f ~reference =
  let n = Ec_cnf.Formula.num_vars f in
  check_pins n pins;
  let compared = min n (Ec_cnf.Assignment.num_vars reference) in
  let remaining = ref (Ec_util.Budget.combine budget options.Ec_ilpsolver.Bnb.budget) in
  let spent = ref Ec_util.Budget.zero in
  let stop_reason = ref Ec_util.Budget.Completed in
  let probes = ref 0 in
  let rows = ref 0 in
  let probe threshold =
    incr probes;
    let enc = Encode.of_formula f in
    let model = Encode.model enc in
    add_pin_rows enc model pins reference;
    let terms, constant = objective_terms enc ~compared ~w:(fun _ -> 1.0) reference in
    (match threshold with
    | None -> ()
    | Some k ->
      Ec_ilp.Model.add_constr model ~name:"preserve_lb"
        (Ec_ilp.Linexpr.of_terms ~constant terms)
        Ec_ilp.Model.Ge (float_of_int k));
    let options = { options with Ec_ilpsolver.Bnb.budget = !remaining } in
    let r = Ec_ilpsolver.Bnb.solve_decision_response ~options model in
    remaining := Ec_util.Budget.consume !remaining r.Ec_ilpsolver.Bnb.counters;
    spent := Ec_util.Budget.add !spent r.Ec_ilpsolver.Bnb.counters;
    rows := !rows + Ec_ilp.Model.num_constrs model;
    match r.Ec_ilpsolver.Bnb.solution.Ec_ilp.Solution.status with
    | Ec_ilp.Solution.Optimal | Ec_ilp.Solution.Feasible -> (
      match Encode.decode enc r.Ec_ilpsolver.Bnb.solution with
      | Some a -> `Sat a
      | None ->
        stop_reason := r.Ec_ilpsolver.Bnb.reason;
        `Stop)
    | Ec_ilp.Solution.Infeasible -> `Unsat
    | Ec_ilp.Solution.Unbounded | Ec_ilp.Solution.Unknown ->
      stop_reason := r.Ec_ilpsolver.Bnb.reason;
      `Stop
  in
  let finish best =
    { solution = best;
      preserved = (match best with None -> 0 | Some a -> agreement_count reference a);
      total = compared;
      optimal = !stop_reason = Ec_util.Budget.Completed;
      reason = !stop_reason;
      counters = !spent;
      work = { probes = !probes; clauses_encoded = !rows; cores = 0 } }
  in
  match probe None with
  | `Unsat | `Stop -> finish None
  | `Sat a0 ->
    (* invariant: [lo] preserved is achievable (witness [best]); above
       [hi] was refuted or is out of range *)
    let best = ref a0 in
    let lo = ref (agreement_count reference a0) in
    let hi = ref compared in
    let stopped = ref false in
    while (not !stopped) && !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      match probe (Some mid) with
      | `Sat a ->
        best := a;
        lo := max mid (agreement_count reference a)
      | `Unsat -> hi := mid - 1
      | `Stop -> stopped := true
    done;
    finish (Some !best)

(* --- SAT engines -------------------------------------------------- *)

(* The set-cover view is itself CNF: two phase variables per CNF
   variable, a covering clause per original clause and an exclusion
   clause per variable.  Over that vocabulary "stays DC" is just "both
   phases false", so a disagreement literal per variable captures the
   same objective as the ILP engine.  Both SAT engines share this hard
   core and differ in how they search the objective — and in the
   vocabulary the objective is spoken in:

   - [`Indicators] (cardinality engine): a fresh indicator variable per
     unpinned compared variable, with one-directional clauses
     (disagree → d).  The counter wants same-polarity inputs, and a
     spurious d=true only weakens a bound probe, never the answer.
   - [`Keep] (MaxSAT engine): for a variable whose reference value is
     concrete, the agreeing phase literal itself carries the objective
     — the disagreement literal is just its negation, costing no
     indicator variable and no clause.  Only DC-reference variables
     need an auxiliary d, and it must be a full equivalence
     d ↔ (pos ∨ neg): the certifier recounts the optimum cost exactly
     from the model, so a spuriously-true d would flunk a sound run. *)
type sat_encoding = {
  e_hard : Ec_cnf.Formula.t;   (* covering + exclusion + pins + indicators *)
  e_d_lits : Ec_cnf.Lit.t list;  (* disagreement literals, true iff the
                                    variable departs from the reference *)
  e_next_var : int;            (* first free variable beyond the encoding *)
  e_unpinned : int list;
  e_decode : Ec_cnf.Assignment.t -> Ec_cnf.Assignment.t;
  e_phase_hint : Ec_cnf.Assignment.t;
}

let sat_encoding ?(objective = `Indicators) pins ~compared f ~reference =
  let n = Ec_cnf.Formula.num_vars f in
  let pos v = v and neg v = n + v in
  let base = ref [] in
  Ec_cnf.Formula.iteri
    (fun _ c ->
      let lits =
        Ec_cnf.Clause.fold
          (fun acc l ->
            let v = Ec_cnf.Lit.var l in
            (if Ec_cnf.Lit.is_positive l then pos v else neg v) :: acc)
          [] c
      in
      match lits with
      | [] -> base := Ec_cnf.Clause.make [] :: !base
      | _ -> base := Ec_cnf.Clause.make lits :: !base)
    f;
  for v = 1 to n do
    base := Ec_cnf.Clause.make [ -pos v; -neg v ] :: !base
  done;
  (* Pins as unit clauses over phases. *)
  List.iter
    (fun v ->
      match reference_value reference v with
      | Ec_cnf.Assignment.True -> base := Ec_cnf.Clause.make [ pos v ] :: !base
      | Ec_cnf.Assignment.False -> base := Ec_cnf.Clause.make [ neg v ] :: !base
      | Ec_cnf.Assignment.Dc ->
        base := Ec_cnf.Clause.make [ -pos v ] :: Ec_cnf.Clause.make [ -neg v ] :: !base)
    pins;
  (* Disagreement indicators for unpinned compared variables. *)
  let unpinned =
    List.filter (fun v -> not (List.mem v pins)) (List.init compared (fun i -> i + 1))
  in
  let d_base = 2 * n in
  let d_clauses = ref [] in
  let d_lits = ref [] in
  let d_count = ref 0 in
  List.iter
    (fun v ->
      match (objective, reference_value reference v) with
      | `Indicators, Ec_cnf.Assignment.True ->
        (* disagree unless the positive phase is selected *)
        incr d_count;
        let d = d_base + !d_count in
        d_lits := d :: !d_lits;
        d_clauses := Ec_cnf.Clause.make [ pos v; d ] :: !d_clauses
      | `Indicators, Ec_cnf.Assignment.False ->
        incr d_count;
        let d = d_base + !d_count in
        d_lits := d :: !d_lits;
        d_clauses := Ec_cnf.Clause.make [ neg v; d ] :: !d_clauses
      | `Indicators, Ec_cnf.Assignment.Dc ->
        (* disagree if either phase is selected *)
        incr d_count;
        let d = d_base + !d_count in
        d_lits := d :: !d_lits;
        d_clauses :=
          Ec_cnf.Clause.make [ -pos v; d ]
          :: Ec_cnf.Clause.make [ -neg v; d ]
          :: !d_clauses
      | `Keep, Ec_cnf.Assignment.True ->
        (* the phase literal already says it: disagree = ¬pos *)
        d_lits := -pos v :: !d_lits
      | `Keep, Ec_cnf.Assignment.False -> d_lits := -neg v :: !d_lits
      | `Keep, Ec_cnf.Assignment.Dc ->
        (* full equivalence d ↔ (pos ∨ neg), so the exact cost recount
           in Certify.check_maxsat cannot be inflated by a free d *)
        incr d_count;
        let d = d_base + !d_count in
        d_lits := d :: !d_lits;
        d_clauses :=
          Ec_cnf.Clause.make [ -pos v; d ]
          :: Ec_cnf.Clause.make [ -neg v; d ]
          :: Ec_cnf.Clause.make [ -d; pos v; neg v ]
          :: !d_clauses)
    unpinned;
  let next_var = d_base + !d_count + 1 in
  let d_lits = List.rev !d_lits in
  let decode a =
    Ec_cnf.Assignment.init n (fun v ->
        let p = Ec_cnf.Assignment.value a (pos v) = Ec_cnf.Assignment.True in
        let q = Ec_cnf.Assignment.value a (neg v) = Ec_cnf.Assignment.True in
        match (p, q) with
        | true, false -> Ec_cnf.Assignment.True
        | false, true -> Ec_cnf.Assignment.False
        | false, false -> Ec_cnf.Assignment.Dc
        | true, true -> assert false (* excluded by the exclusion clause *))
  in
  (* Warm start every CDCL call toward the reference: a phase variable
     is preferred true exactly when the reference selects that phase;
     indicators are left DC. *)
  let phase_hint =
    Ec_cnf.Assignment.init (next_var - 1) (fun x ->
        if x > d_base then Ec_cnf.Assignment.Dc
        else
          let v, phase =
            if x <= n then (x, Ec_cnf.Assignment.True) else (x - n, Ec_cnf.Assignment.False)
          in
          if reference_value reference v = phase then Ec_cnf.Assignment.True
          else Ec_cnf.Assignment.False)
  in
  { e_hard = Ec_cnf.Formula.create ~num_vars:(next_var - 1) (!base @ !d_clauses);
    e_d_lits = d_lits;
    e_next_var = next_var;
    e_unpinned = unpinned;
    e_decode = decode;
    e_phase_hint = phase_hint }

let disagreements e ~reference a =
  List.length
    (List.filter
       (fun v -> Ec_cnf.Assignment.value a v <> reference_value reference v)
       e.e_unpinned)

(* Cardinality engine: binary search on the disagreement count, over
   ONE incremental session.  The counter over the indicators is encoded
   a single time (capacity = the first model's disagreement count) and
   every probe below it is one {e assumption} [¬bound_lit k] — no
   re-encoding per probe, and the session's learnt clauses carry across
   the whole search. *)
let resolve_sat options pins budget f ~reference =
  let n = Ec_cnf.Formula.num_vars f in
  check_pins n pins;
  let compared = min n (Ec_cnf.Assignment.num_vars reference) in
  let e = sat_encoding pins ~compared f ~reference in
  let options = { options with Ec_sat.Cdcl.phase_hint = Some e.e_phase_hint } in
  (* One budget for the whole search: each probe solves under what the
     previous probes left. *)
  let remaining = ref (Ec_util.Budget.combine budget options.Ec_sat.Cdcl.budget) in
  let spent = ref Ec_util.Budget.zero in
  let stop_reason = ref Ec_util.Budget.Completed in
  let probes = ref 0 in
  let encoded = ref (Ec_cnf.Formula.num_clauses e.e_hard) in
  let session = Ec_sat.Incremental.create ~options e.e_hard in
  let query assumptions =
    incr probes;
    let r = Ec_sat.Incremental.solve_with_core ~assumptions ~budget:!remaining session in
    remaining := Ec_util.Budget.consume !remaining r.Ec_sat.Incremental.counters;
    spent := Ec_util.Budget.add !spent r.Ec_sat.Incremental.counters;
    r.Ec_sat.Incremental.outcome
  in
  let finish best =
    { solution = best;
      preserved = (match best with None -> 0 | Some a -> agreement_count reference a);
      total = compared;
      optimal = !stop_reason = Ec_util.Budget.Completed;
      reason = !stop_reason;
      counters = !spent;
      work = { probes = !probes; clauses_encoded = !encoded; cores = 0 } }
  in
  (* The unconstrained probe first: its disagreement count caps the
     counter capacity (encoding size stays proportional to the best
     incumbent, as the historical re-encoding search kept k bounded). *)
  match query [] with
  | Ec_sat.Outcome.Unsat -> finish None
  | Ec_sat.Outcome.Unknown reason ->
    stop_reason := reason;
    finish None
  | Ec_sat.Outcome.Sat a0 ->
    let best = ref (e.e_decode a0) in
    let u0 = disagreements e ~reference !best in
    if u0 = 0 then finish (Some !best)
    else begin
      let card = Ec_sat.Cardinality.counter ~next_var:e.e_next_var e.e_d_lits u0 in
      Ec_sat.Incremental.add_clauses session card.Ec_sat.Cardinality.r_clauses;
      encoded := !encoded + List.length card.Ec_sat.Cardinality.r_clauses;
      let rec search lo hi =
        (* invariant: k = hi is known satisfiable with witness [best] *)
        if lo < hi then begin
          let mid = (lo + hi) / 2 in
          match query [ Ec_cnf.Lit.negate (Ec_sat.Cardinality.bound_lit card mid) ] with
          | Ec_sat.Outcome.Sat a ->
            let a = e.e_decode a in
            best := a;
            search lo (min mid (disagreements e ~reference a))
          | Ec_sat.Outcome.Unsat -> search (mid + 1) hi
          | Ec_sat.Outcome.Unknown reason -> stop_reason := reason
        end
      in
      search 0 u0;
      finish (Some !best)
    end

(* Core-guided MaxSAT engine: soft "keep" literals [¬d_v], one
   incremental session end to end; every decisive verdict re-checked
   independently ({!Certify.check_maxsat}) before anyone acts on it. *)
let resolve_maxsat (mopts : Ec_sat.Maxsat.options) pins budget f ~reference =
  let n = Ec_cnf.Formula.num_vars f in
  check_pins n pins;
  let compared = min n (Ec_cnf.Assignment.num_vars reference) in
  let e = sat_encoding ~objective:`Keep pins ~compared f ~reference in
  let soft = List.map Ec_cnf.Lit.negate e.e_d_lits in
  let options =
    { Ec_sat.Maxsat.cdcl =
        { mopts.Ec_sat.Maxsat.cdcl with Ec_sat.Cdcl.phase_hint = Some e.e_phase_hint };
      budget = Ec_util.Budget.combine budget mopts.Ec_sat.Maxsat.budget }
  in
  let fail reason counters work =
    { solution = None;
      preserved = 0;
      total = compared;
      optimal = false;
      reason;
      counters;
      work }
  in
  match Ec_sat.Maxsat.solve ~options ~soft e.e_hard with
  | exception Ec_sat.Maxsat.Corrupt_core l ->
    (* A corrupted core is an engine failure, not an answer: degrade to
       an honest Unknown (the ["maxsat.core"] chaos drill exercises
       exactly this path). *)
    fail
      (Ec_util.Budget.Engine_failure
         ("maxsat", Printf.sprintf "core literal %s is not an active assumption"
                      (Ec_cnf.Lit.to_string l)))
      Ec_util.Budget.zero no_work
  | r -> (
    let work =
      { probes = r.Ec_sat.Maxsat.stats.Ec_sat.Maxsat.sat_calls;
        clauses_encoded = r.Ec_sat.Maxsat.stats.Ec_sat.Maxsat.clauses_encoded;
        cores = r.Ec_sat.Maxsat.stats.Ec_sat.Maxsat.cores }
    in
    match Certify.check_maxsat e.e_hard r with
    | Error detail ->
      fail
        (Ec_util.Budget.Engine_failure ("maxsat", detail))
        r.Ec_sat.Maxsat.counters work
    | Ok () -> (
      let decoded (b : Ec_sat.Maxsat.best) = e.e_decode b.Ec_sat.Maxsat.model in
      match r.Ec_sat.Maxsat.verdict with
      | Ec_sat.Maxsat.Optimum b ->
        let a = decoded b in
        { solution = Some a;
          preserved = agreement_count reference a;
          total = compared;
          optimal = true;
          reason = Ec_util.Budget.Completed;
          counters = r.Ec_sat.Maxsat.counters;
          work }
      | Ec_sat.Maxsat.Hard_unsat ->
        { solution = None;
          preserved = 0;
          total = compared;
          optimal = true;
          reason = Ec_util.Budget.Completed;
          counters = r.Ec_sat.Maxsat.counters;
          work }
      | Ec_sat.Maxsat.Stopped { reason; incumbent } ->
        let best = Option.map decoded incumbent in
        { solution = best;
          preserved =
            (match best with None -> 0 | Some a -> agreement_count reference a);
          total = compared;
          optimal = false;
          reason;
          counters = r.Ec_sat.Maxsat.counters;
          work }))

let resolve ?(engine = default_engine) ?(pins = []) ?(weights = [])
    ?(budget = Ec_util.Budget.unlimited) f ~reference =
  let require_unweighted () =
    if weights <> [] then
      invalid_arg "Preserving.resolve: weights require the Ilp_objective engine"
  in
  match engine with
  | Ilp_objective options -> resolve_ilp options pins weights budget f ~reference
  | Ilp_iterative options ->
    require_unweighted ();
    resolve_ilp_iterative options pins budget f ~reference
  | Sat_cardinality options ->
    require_unweighted ();
    resolve_sat options pins budget f ~reference
  | Sat_maxsat options ->
    require_unweighted ();
    resolve_maxsat options pins budget f ~reference
