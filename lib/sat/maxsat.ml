(* Core-guided MaxSAT (unweighted, OLL-style) over ONE incremental
   CDCL session.  See maxsat.mli for the contract; DESIGN.md for the
   algorithm write-up.

   This module deliberately never constructs a decisive {!Outcome}
   value: its verdicts are its own type, and the certification that
   turns them into answers lives upstream in ec_core (the FP001 lint
   enforces this split — "maxsat" is a certification-scoped unit). *)

type options = {
  cdcl : Cdcl.options;         (* the one session's solver options *)
  budget : Ec_util.Budget.t;   (* allowance for the whole optimization *)
}

let default_options = { cdcl = Cdcl.default_options; budget = Ec_util.Budget.unlimited }

(* The optimizer's knobs are the underlying session's: flatten the CDCL
   fields into this spec so "maxsat:var_decay=0.9" reads naturally. *)
let config =
  Ec_util.Config.make ~engine:"maxsat"
    ~doc:"core-guided MaxSAT over one incremental CDCL session"
    ~defaults:default_options
    [ Ec_util.Config.float "var_decay" ~doc:"session VSIDS activity decay"
        ~get:(fun o -> o.cdcl.Cdcl.var_decay)
        ~set:(fun v o -> { o with cdcl = { o.cdcl with Cdcl.var_decay = v } });
      Ec_util.Config.int "restart_base" ~doc:"session conflicts per Luby restart unit"
        ~get:(fun o -> o.cdcl.Cdcl.restart_base)
        ~set:(fun v o -> { o with cdcl = { o.cdcl with Cdcl.restart_base = v } });
      Ec_util.Config.int "seed" ~doc:"session variable-order randomization seed"
        ~get:(fun o -> o.cdcl.Cdcl.seed)
        ~set:(fun v o -> { o with cdcl = { o.cdcl with Cdcl.seed = v } }) ]

type stats = {
  sat_calls : int;
  cores : int;
  core_lits : int;
  bound_increases : int;
  clauses_encoded : int;
}

type best = { model : Ec_cnf.Assignment.t; cost : int }

type verdict =
  | Optimum of best
  | Hard_unsat
  | Stopped of { reason : Ec_util.Budget.reason; incumbent : best option }

type result = {
  verdict : verdict;
  lower_bound : int;
  cores : Ec_cnf.Lit.t list list;
  soft : Ec_cnf.Lit.t list;
  aux_lo : int;
  aux_hi : int;
  stats : stats;
  counters : Ec_util.Budget.counters;
}

(* A soft literal is satisfied only by the matching concrete value; a
   model leaving it DC does not preserve it.  (Session models are
   total, so this only matters for external recounts.) *)
let lit_satisfied a l = Ec_cnf.Assignment.lit_true a l

let cost_of soft a = List.length (List.filter (fun l -> not (lit_satisfied a l)) soft)

(* One relaxation group: the totalizer over a core's violation
   indicators.  [allowed] is how many of them the optimum is currently
   permitted to set; the group's live assumption (if any) is
   ¬output(allowed + 1). *)
type group = { tot : Totalizer.incremental; mutable allowed : int }

type origin = Soft | Sum of group

type assumption = { a_lit : Ec_cnf.Lit.t; origin : origin }

let m_cores = Ec_util.Metrics.counter "maxsat.cores"

let m_bound = Ec_util.Metrics.counter "maxsat.bound"

let m_calls = Ec_util.Metrics.counter "maxsat.sat_calls"

let m_encoded = Ec_util.Metrics.counter "maxsat.clauses_encoded"

exception Corrupt_core of Ec_cnf.Lit.t

let solve ?(options = default_options) ~soft hard =
  Ec_util.Trace.span ~cat:"solve"
    ~args:[ ("soft", string_of_int (List.length soft)) ]
    ~result_args:(fun r ->
      [ ("cores", string_of_int r.stats.cores);
        ("sat_calls", string_of_int r.stats.sat_calls);
        ("encoded", string_of_int r.stats.clauses_encoded) ])
    "maxsat.solve"
  @@ fun () ->
  let nvars = Ec_cnf.Formula.num_vars hard in
  List.iter
    (fun l ->
      let v = Ec_cnf.Lit.var l in
      if v < 1 || v > nvars then
        invalid_arg "Maxsat.solve: soft literal outside the hard formula's variables")
    soft;
  let soft = List.sort_uniq compare soft in
  let session = Incremental.create ~options:options.cdcl hard in
  let var_counter = ref (nvars + 1) in
  let clauses_encoded = ref (Ec_cnf.Formula.num_clauses hard) in
  let sat_calls = ref 0 in
  let ncores = ref 0 in
  let core_lits = ref 0 in
  let bound_increases = ref 0 in
  let cores_log = ref [] in
  let lb = ref 0 in
  let remaining = ref options.budget in
  let spent = ref Ec_util.Budget.zero in
  let post cs =
    List.iter (Incremental.add_clause session) cs;
    let n = List.length cs in
    clauses_encoded := !clauses_encoded + n;
    if Ec_util.Metrics.enabled () then Ec_util.Metrics.add m_encoded n
  in
  let query assumptions =
    incr sat_calls;
    if Ec_util.Metrics.enabled () then Ec_util.Metrics.incr m_calls;
    let r = Incremental.solve_with_core ~assumptions ~budget:!remaining session in
    remaining := Ec_util.Budget.consume !remaining r.Incremental.counters;
    spent := Ec_util.Budget.add !spent r.Incremental.counters;
    r
  in
  (* Session models range over every variable the session has seen
     (totalizer outputs included); callers get the hard formula's. *)
  let restrict a =
    let width = Ec_cnf.Assignment.num_vars a in
    Ec_cnf.Assignment.init nvars (fun v ->
        if v <= width then Ec_cnf.Assignment.value a v else Ec_cnf.Assignment.Dc)
  in
  let finish verdict =
    { verdict;
      lower_bound = !lb;
      cores = List.rev !cores_log;
      soft;
      aux_lo = nvars + 1;
      aux_hi = !var_counter;
      stats =
        { sat_calls = !sat_calls;
          cores = !ncores;
          core_lits = !core_lits;
          bound_increases = !bound_increases;
          clauses_encoded = !clauses_encoded };
      counters = !spent }
  in
  (* Incumbent probe: one assumption-free solve, warm-started by the
     session's phase hints, gives an upper bound and a model to return
     if the budget dies mid-optimization.  (OLL alone holds no model
     until it terminates.) *)
  match query [] with
  | { Incremental.outcome = Outcome.Unsat; _ } -> finish Hard_unsat
  | { Incremental.outcome = Outcome.Unknown reason; _ } ->
    finish (Stopped { reason; incumbent = None })
  | { Incremental.outcome = Outcome.Sat a0; _ } -> (
    let incumbent = ref { model = restrict a0; cost = cost_of soft a0 } in
    if !incumbent.cost = 0 then finish (Optimum !incumbent)
    else begin
      (* The OLL loop proper: soft literals as assumptions; each unsat
         core raises the lower bound by one and is relaxed through a
         totalizer whose bound can only be strengthened in place. *)
      let active =
        ref (List.map (fun l -> { a_lit = l; origin = Soft }) soft)
      in
      let result = ref None in
      while !result = None do
        if !lb >= !incumbent.cost then
          (* The lower bound met the incumbent: optimal, no final call. *)
          result := Some (Optimum { !incumbent with cost = !lb })
        else begin
          let r = query (List.map (fun a -> a.a_lit) !active) in
          match r.Incremental.outcome with
          | Outcome.Sat a ->
            (* Every remaining assumption held: cost = #relaxed = lb. *)
            result := Some (Optimum { model = restrict a; cost = !lb })
          | Outcome.Unknown reason ->
            result := Some (Stopped { reason; incumbent = Some !incumbent })
          | Outcome.Unsat ->
            let core =
              Ec_util.Fault.point "maxsat.core"
                ~corrupt:(fun rng c ->
                  match c with
                  | [] -> []
                  | _ :: rest ->
                    Ec_cnf.Lit.make (!var_counter + 1 + Ec_util.Rng.int rng 64) true
                    :: rest)
                r.Incremental.core
            in
            if core = [] then result := Some Hard_unsat
            else begin
              incr lb;
              incr ncores;
              core_lits := !core_lits + List.length core;
              cores_log := core :: !cores_log;
              if Ec_util.Metrics.enabled () then begin
                Ec_util.Metrics.incr m_cores;
                Ec_util.Metrics.incr m_bound
              end;
              let members, rest =
                List.partition (fun a -> List.mem a.a_lit core) !active
              in
              (* A core literal that is not an active assumption cannot
                 come from final-conflict analysis: the core was
                 corrupted in flight.  Fail loudly; the ec_core wrapper
                 contains it as an engine failure. *)
              List.iter
                (fun l ->
                  if not (List.exists (fun a -> a.a_lit = l) members) then
                    raise (Corrupt_core l))
                core;
              active := rest;
              (* Relax: bump every sum member's group in place (the
                 incremental strengthening — only delta clauses are
                 posted) and re-assume its next output. *)
              List.iter
                (fun a ->
                  match a.origin with
                  | Soft ->
                    if List.length members = 1 then
                      (* hard ⊨ ¬l: harden the forced violation. *)
                      post [ Ec_cnf.Clause.make [ Ec_cnf.Lit.negate a.a_lit ] ]
                  | Sum g ->
                    g.allowed <- g.allowed + 1;
                    incr bound_increases;
                    post (Totalizer.increase_bound g.tot g.allowed);
                    if List.length members = 1 then
                      (* hard ⊨ (count > allowed-1): harden it. *)
                      post [ Ec_cnf.Clause.make [ Ec_cnf.Lit.negate a.a_lit ] ];
                    if g.allowed + 1 <= Totalizer.size g.tot then
                      active :=
                        !active
                        @ [ { a_lit =
                                Ec_cnf.Lit.negate (Totalizer.output g.tot (g.allowed + 1));
                              origin = Sum g } ])
                members;
              (* A multi-literal core gets a fresh totalizer over its
                 violation indicators; "at most one of them" is the new
                 assumption ¬o_2. *)
              if List.length members >= 2 then begin
                let indicators = List.map (fun a -> Ec_cnf.Lit.negate a.a_lit) members in
                let tot = Totalizer.incremental ~next_var:!var_counter indicators in
                var_counter := Totalizer.inc_next_var tot;
                let g = { tot; allowed = 1 } in
                incr bound_increases;
                post (Totalizer.increase_bound tot 1);
                if 2 <= Totalizer.size tot then
                  active :=
                    !active
                    @ [ { a_lit = Ec_cnf.Lit.negate (Totalizer.output tot 2);
                          origin = Sum g } ]
              end
            end
        end
      done;
      match !result with Some v -> finish v | None -> assert false
    end)
