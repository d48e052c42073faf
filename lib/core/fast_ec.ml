type simplified = {
  sub_formula : Ec_cnf.Formula.t;
  vars : int list;
  marked : int list;
  already_satisfied : bool;
}

(* Cone-size distributions under --metrics: Table 2's "Ave. # Vars" /
   "Ave. # Clauses" as histograms, one sample per extraction. *)
let cone_vars = Ec_util.Metrics.histogram "fast_ec.cone_vars"

let cone_clauses = Ec_util.Metrics.histogram "fast_ec.cone_clauses"

let already_satisfied_count = Ec_util.Metrics.counter "fast_ec.already_satisfied"

(* Is some literal from index [i] on true under [p] on a variable
   outside the cone? *)
let rec true_outside in_v p lits i =
  i < Array.length lits
  &&
  let l = lits.(i) in
  if in_v.(Ec_cnf.Lit.var l) || not (Ec_cnf.Assignment.lit_true p l) then
    true_outside in_v p lits (i + 1)
  else true

let simplify f p =
  Ec_util.Trace.span ~cat:"fast_ec"
    ~result_args:(fun s ->
      [ ("cone_vars", string_of_int (List.length s.vars));
        ("cone_clauses", string_of_int (List.length s.marked));
        ("already_satisfied", string_of_bool s.already_satisfied) ])
    "fast_ec.simplify"
  @@ fun () ->
  let unsat = Ec_cnf.Assignment.unsatisfied_clauses p f in
  if unsat = [] then
    { sub_formula = Ec_cnf.Formula.create ~num_vars:(Ec_cnf.Formula.num_vars f) [];
      vars = [];
      marked = [];
      already_satisfied = true }
  else begin
    let n = Ec_cnf.Formula.num_vars f in
    let in_v = Array.make (n + 1) false in
    let marked = Array.make (Ec_cnf.Formula.num_clauses f) false in
    let queue = Queue.create () in
    let add_var v =
      if not in_v.(v) then begin
        in_v.(v) <- true;
        Queue.push v queue
      end
    in
    let mark i =
      if not marked.(i) then begin
        marked.(i) <- true;
        let lits = Ec_cnf.Clause.lits (Ec_cnf.Formula.clause f i) in
        for j = 0 to Array.length lits - 1 do
          add_var (Ec_cnf.Lit.var lits.(j))
        done
      end
    in
    List.iter mark unsat;
    (* Fixpoint: a clause touching V is safe only if satisfied by a
       variable outside V; otherwise it joins the cone. *)
    let visit i =
      if not marked.(i) then begin
        let lits = Ec_cnf.Clause.lits (Ec_cnf.Formula.clause f i) in
        if not (true_outside in_v p lits 0) then mark i
      end
    in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Ec_cnf.Formula.iter_occurrences visit f v;
      Ec_cnf.Formula.iter_occurrences visit f (-v)
    done;
    let vars = ref [] in
    for v = n downto 1 do
      if in_v.(v) then vars := v :: !vars
    done;
    let marked_idx = ref [] in
    let sub_clauses = ref [] in
    let in_cone l = in_v.(Ec_cnf.Lit.var l) in
    for i = Ec_cnf.Formula.num_clauses f - 1 downto 0 do
      if marked.(i) then begin
        marked_idx := i :: !marked_idx;
        sub_clauses := Ec_cnf.Clause.filter in_cone (Ec_cnf.Formula.clause f i) :: !sub_clauses
      end
    done;
    { sub_formula = Ec_cnf.Formula.create ~num_vars:n !sub_clauses;
      vars = !vars;
      marked = !marked_idx;
      already_satisfied = false }
  end

type result = {
  simplified : simplified;
  solution : Ec_cnf.Assignment.t option;
  sub_vars_count : int;
  sub_clauses_count : int;
  reason : Ec_util.Budget.reason;
  counters : Ec_util.Budget.counters;
}

let resolve ?(backend = Backend.cdcl) ?budget f p =
  Ec_util.Trace.span ~cat:"fast_ec"
    ~result_args:(fun r ->
      [ ("solved", string_of_bool (r.solution <> None));
        ("reason", Ec_util.Budget.reason_to_string r.reason) ])
    "fast_ec.resolve"
  @@ fun () ->
  let s = simplify f p in
  if Ec_util.Metrics.enabled () then begin
    if s.already_satisfied then Ec_util.Metrics.incr already_satisfied_count
    else begin
      Ec_util.Metrics.observe cone_vars (float_of_int (List.length s.vars));
      Ec_util.Metrics.observe cone_clauses (float_of_int (List.length s.marked))
    end
  end;
  if s.already_satisfied then
    { simplified = s;
      solution = Some p;
      sub_vars_count = 0;
      sub_clauses_count = 0;
      reason = Ec_util.Budget.Completed;
      counters = Ec_util.Budget.zero }
  else begin
    let r =
      Ec_util.Trace.span ~cat:"fast_ec" "fast_ec.solve" (fun () ->
          Backend.solve_response ?budget backend s.sub_formula)
    in
    let solution, reason =
      match r.Backend.outcome with
      | Ec_sat.Outcome.Sat sub -> (
        Ec_util.Trace.span ~cat:"fast_ec" "fast_ec.merge"
        @@ fun () ->
        let p = Ec_cnf.Assignment.extend p (Ec_cnf.Formula.num_vars f) in
        let merged = Ec_cnf.Assignment.merge_on ~vars:s.vars ~base:p ~overlay:sub in
        (* Merge certification: the cone construction guarantees the
           combined assignment satisfies every clause — the marked ones
           through the re-solve, the untouched region through a
           variable outside the cone.  Re-check clause by clause; a
           violation means the sub-model (or the merge) is corrupt, and
           is reported as an engine failure rather than a wrong
           answer. *)
        match Certify.check_model f merged with
        | Ok () -> (Some merged, r.Backend.reason)
        | Error detail ->
          ( None,
            Ec_util.Budget.Engine_failure
              ("fast-ec", "merge certification failed: " ^ detail) ))
      | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> (None, r.Backend.reason)
    in
    { simplified = s;
      solution;
      sub_vars_count = List.length s.vars;
      sub_clauses_count = List.length s.marked;
      reason;
      counters = r.Backend.counters }
  end

let refresh = Ec_sat.Minimize.recover_dc ?order:None
