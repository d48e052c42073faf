type branching = First_unfixed | Most_constrained

type options = {
  branching : branching;
  use_lp_bounding : bool;
  lp_max_depth : int;
  budget : Ec_util.Budget.t;
  greedy_completion : bool;
  tie_seed : int option;
}

let default_options =
  { branching = Most_constrained;
    use_lp_bounding = false;
    lp_max_depth = 4;
    budget = Ec_util.Budget.unlimited;
    greedy_completion = true;
    tie_seed = None }

(* Tunable surface for the unified config plane.  Budget stays outside
   the spec (per-solve runtime state); tie_seed uses the "none"
   sentinel so the deterministic default round-trips. *)
let config =
  Ec_util.Config.make ~engine:"bnb"
    ~doc:"branch-and-bound 0-1 ILP optimizer (plays the paper's CPLEX role)"
    ~defaults:default_options
    [ Ec_util.Config.enum "branching" ~doc:"variable-selection heuristic"
        ~values:
          [ ("first-unfixed", First_unfixed); ("most-constrained", Most_constrained) ]
        ~get:(fun o -> o.branching)
        ~set:(fun v o -> { o with branching = v });
      Ec_util.Config.bool "use_lp_bounding" ~doc:"LP-relaxation bounding near the root"
        ~get:(fun o -> o.use_lp_bounding)
        ~set:(fun v o -> { o with use_lp_bounding = v });
      Ec_util.Config.int "lp_max_depth" ~doc:"LP bound applied at depths <= this"
        ~get:(fun o -> o.lp_max_depth)
        ~set:(fun v o -> { o with lp_max_depth = v });
      Ec_util.Config.bool "greedy_completion"
        ~doc:"finish dominated subtrees greedily by objective sign"
        ~get:(fun o -> o.greedy_completion)
        ~set:(fun v o -> { o with greedy_completion = v });
      Ec_util.Config.int_opt "tie_seed"
        ~doc:"randomize exact branching-score ties (\"none\" = deterministic)"
        ~get:(fun o -> o.tie_seed)
        ~set:(fun v o -> { o with tie_seed = v }) ]

type stats = {
  nodes : int;
  conflicts : int;
  propagated_fixes : int;
  lp_calls : int;
  lp_prunes : int;
}

type response = {
  solution : Ec_ilp.Solution.t;
  reason : Ec_util.Budget.reason;
  stats : stats;
  counters : Ec_util.Budget.counters;
}

let eps = 1e-9

exception Conflict

exception Out_of_budget of Ec_util.Budget.reason

type state = {
  sys : Rows.t;
  value : int array;          (* -1 unfixed, 0, 1 *)
  minact : float array;       (* per row, given current fixings *)
  maxact : float array;
  trail : int array;          (* fixed variables in order *)
  mutable trail_len : int;
  mutable fixed_cost : float;
  mutable free_neg_sum : float; (* sum of negative objective coeffs over unfixed vars *)
  mutable incumbent : int array option;
  mutable incumbent_obj : float;
  (* stats *)
  mutable nodes : int;
  mutable conflicts : int;
  mutable propagated_fixes : int;
  mutable lp_calls : int;
  mutable lp_prunes : int;
  mutable budget : Ec_util.Budget.t;
  mutable gauge : Ec_util.Budget.gauge;
  mutable tie_rng : Ec_util.Rng.t option;
}

(* eclint: allow BP001 — placeholder gauge on an unlimited budget;
   solve re-arms the real gauge and owns the Budget.check polls *)
let make_state sys =
  let nrows = Array.length sys.Rows.rows in
  let minact = Array.make nrows 0.0 in
  let maxact = Array.make nrows 0.0 in
  Array.iteri
    (fun r row ->
      minact.(r) <- Rows.min_activity row;
      maxact.(r) <- Array.fold_left (fun acc c -> acc +. Float.max 0.0 c) 0.0 row.Rows.coeffs)
    sys.Rows.rows;
  let free_neg_sum = Array.fold_left (fun acc c -> acc +. Float.min 0.0 c) 0.0 sys.Rows.obj in
  { sys;
    value = Array.make sys.Rows.nvars (-1);
    minact;
    maxact;
    trail = Array.make (max sys.Rows.nvars 1) 0;
    trail_len = 0;
    fixed_cost = 0.0;
    free_neg_sum;
    incumbent = None;
    incumbent_obj = infinity;
    nodes = 0;
    conflicts = 0;
    propagated_fixes = 0;
    lp_calls = 0;
    lp_prunes = 0;
    budget = Ec_util.Budget.unlimited;
    gauge = Ec_util.Budget.start Ec_util.Budget.unlimited;
    tie_rng = None }

(* Fixing a variable updates row activities and the objective
   bookkeeping; [dirty] collects rows to re-examine. *)
let fix st dirty v b =
  st.value.(v) <- b;
  st.trail.(st.trail_len) <- v;
  st.trail_len <- st.trail_len + 1;
  let fb = float_of_int b in
  List.iter
    (fun (r, c) ->
      st.minact.(r) <- st.minact.(r) +. ((fb *. c) -. Float.min 0.0 c);
      st.maxact.(r) <- st.maxact.(r) +. ((fb *. c) -. Float.max 0.0 c);
      Queue.push r dirty)
    st.sys.Rows.occ.(v);
  let oc = st.sys.Rows.obj.(v) in
  st.fixed_cost <- st.fixed_cost +. (fb *. oc);
  st.free_neg_sum <- st.free_neg_sum -. Float.min 0.0 oc

let unfix st v =
  let b = st.value.(v) in
  st.value.(v) <- -1;
  let fb = float_of_int b in
  List.iter
    (fun (r, c) ->
      st.minact.(r) <- st.minact.(r) -. ((fb *. c) -. Float.min 0.0 c);
      st.maxact.(r) <- st.maxact.(r) -. ((fb *. c) -. Float.max 0.0 c))
    st.sys.Rows.occ.(v);
  let oc = st.sys.Rows.obj.(v) in
  st.fixed_cost <- st.fixed_cost -. (fb *. oc);
  st.free_neg_sum <- st.free_neg_sum +. Float.min 0.0 oc

let backtrack st mark =
  while st.trail_len > mark do
    st.trail_len <- st.trail_len - 1;
    unfix st st.trail.(st.trail_len)
  done

(* Propagate to fixpoint from the dirty rows.  @raise Conflict. *)
let propagate st dirty =
  while not (Queue.is_empty dirty) do
    let r = Queue.pop dirty in
    let row = st.sys.Rows.rows.(r) in
    let slack = row.Rows.ub -. st.minact.(r) in
    if slack < -.eps then begin
      st.conflicts <- st.conflicts + 1;
      raise Conflict
    end;
    if st.maxact.(r) > row.Rows.ub +. eps then
      (* Row still active: look for forced variables. *)
      Array.iteri
        (fun k v ->
          if st.value.(v) = -1 then begin
            let c = row.Rows.coeffs.(k) in
            if c > slack +. eps then begin
              st.propagated_fixes <- st.propagated_fixes + 1;
              fix st dirty v 0
            end
            else if -.c > slack +. eps then begin
              st.propagated_fixes <- st.propagated_fixes + 1;
              fix st dirty v 1
            end
          end)
        row.Rows.vars
  done

let all_rows_inactive st =
  let n = Array.length st.sys.Rows.rows in
  let rec loop r =
    r >= n
    || (st.maxact.(r) <= st.sys.Rows.rows.(r).Rows.ub +. eps && loop (r + 1))
  in
  loop 0

(* Complete the current partial point greedily by objective sign; only
   valid when every row is inactive (any completion is feasible). *)
let greedy_completion st =
  Array.mapi
    (fun v x ->
      if x >= 0 then x else if st.sys.Rows.obj.(v) < 0.0 then 1 else 0)
    st.value

let record_incumbent st point =
  let obj = Rows.internal_objective st.sys point in
  if obj < st.incumbent_obj -. eps then begin
    st.incumbent <- Some (Array.copy point);
    st.incumbent_obj <- obj
  end

(* Branching variable: lowest index or most occurrences in active
   rows.  Returns the variable and the value to try first (the value
   deactivating more rows, objective sign as tie-break). *)
let pick_branch st branching =
  let nrows = Array.length st.sys.Rows.rows in
  let active = Array.make nrows false in
  for r = 0 to nrows - 1 do
    active.(r) <- st.maxact.(r) > st.sys.Rows.rows.(r).Rows.ub +. eps
  done;
  let best_var = ref (-1) in
  let best_score = ref (-1) in
  let pos_help = ref 0 and neg_help = ref 0 in
  let consider v =
    if st.value.(v) = -1 then begin
      let score = ref 0 and ph = ref 0 and nh = ref 0 in
      List.iter
        (fun (r, c) ->
          if active.(r) then begin
            incr score;
            (* Setting v=1 lowers maxact when c<0 (helps satisfy the
               row); setting v=0 lowers it when c>0. *)
            if c < 0.0 then incr ph else incr nh
          end)
        st.sys.Rows.occ.(v);
      (* Optional randomized tie-breaking: jitter below the score
         granularity so only exact ties are reshuffled. *)
      let score =
        match st.tie_rng with
        | None -> ref (!score * 8)
        | Some rng -> ref ((!score * 8) + Ec_util.Rng.int rng 8)
      in
      if !score > !best_score then begin
        best_score := !score;
        best_var := v;
        pos_help := !ph;
        neg_help := !nh
      end
    end
  in
  (match branching with
  | First_unfixed ->
    let rec first v =
      if v >= st.sys.Rows.nvars then ()
      else if st.value.(v) = -1 then consider v
      else first (v + 1)
    in
    first 0
  | Most_constrained ->
    for v = 0 to st.sys.Rows.nvars - 1 do
      consider v
    done);
  if !best_var = -1 then None
  else begin
    let v = !best_var in
    let first_value =
      if !pos_help > !neg_help then 1
      else if !pos_help < !neg_help then 0
      else if st.sys.Rows.obj.(v) > 0.0 then 0
      else 1
    in
    Some (v, first_value)
  end

(* LP bound of the current node: relax free variables to [0,1] with
   fixed values substituted.  Returns [None] when the node survives,
   or [Some ()] meaning prune. *)
let lp_prune st =
  st.lp_calls <- st.lp_calls + 1;
  let free = ref [] in
  for v = st.sys.Rows.nvars - 1 downto 0 do
    if st.value.(v) = -1 then free := v :: !free
  done;
  let free = Array.of_list !free in
  let index_of = Hashtbl.create (Array.length free) in
  Array.iteri (fun k v -> Hashtbl.replace index_of v k) free;
  let nfree = Array.length free in
  let rows = ref [] in
  Array.iteri
    (fun r row ->
      if st.maxact.(r) > row.Rows.ub +. eps then begin
        (* rhs minus contribution of fixed vars *)
        let rhs = ref row.Rows.ub in
        let terms = ref [] in
        Array.iteri
          (fun k v ->
            let c = row.Rows.coeffs.(k) in
            if st.value.(v) = -1 then terms := (Hashtbl.find index_of v, c) :: !terms
            else rhs := !rhs -. (c *. float_of_int st.value.(v)))
          row.Rows.vars;
        let arr = Array.make nfree 0.0 in
        List.iter (fun (k, c) -> arr.(k) <- arr.(k) +. c) !terms;
        rows := (arr, !rhs) :: !rows
      end)
    st.sys.Rows.rows;
  (* x <= 1 bounds *)
  for k = 0 to nfree - 1 do
    let arr = Array.make nfree 0.0 in
    arr.(k) <- 1.0;
    rows := (arr, 1.0) :: !rows
  done;
  let rows = !rows in
  let a = Array.of_list (List.map fst rows) in
  let b = Array.of_list (List.map snd rows) in
  (* We minimize Σ obj over free vars: maximize the negation. *)
  let c = Array.map (fun v -> -.st.sys.Rows.obj.(v)) free in
  (* The LP inherits what is left of the node's budget: the deadline
     shrinks by the time already spent; an [iterations] allowance caps
     pivots per bounding call. *)
  let lp_budget =
    Ec_util.Budget.consume st.budget
      { Ec_util.Budget.zero with spent_wall_s = Ec_util.Budget.elapsed_s st.gauge }
  in
  match Ec_simplex.Simplex.solve_canonical ~budget:lp_budget ~a ~b ~c () with
  | Ec_simplex.Simplex.Infeasible ->
    st.lp_prunes <- st.lp_prunes + 1;
    true
  | Ec_simplex.Simplex.Unbounded -> false
  | Ec_simplex.Simplex.Interrupted _ -> false
  | Ec_simplex.Simplex.Optimal { objective; _ } ->
    let lower = st.fixed_cost -. objective in
    if lower >= st.incumbent_obj -. 1e-6 then begin
      st.lp_prunes <- st.lp_prunes + 1;
      true
    end
    else false

let check_budget st =
  match Ec_util.Budget.check st.gauge ~conflicts:st.conflicts ~nodes:st.nodes with
  | Some r -> raise (Out_of_budget r)
  | None -> ()

let rec search st options ~stop_at_first ~depth =
  st.nodes <- st.nodes + 1;
  check_budget st;
  (* Objective bound from fixed cost plus the best the free vars can do. *)
  let lower = st.fixed_cost +. st.free_neg_sum in
  if lower >= st.incumbent_obj -. eps then ()
  else if options.greedy_completion && all_rows_inactive st then begin
    record_incumbent st (greedy_completion st);
    if stop_at_first then raise Exit
  end
  else if
    options.use_lp_bounding && depth <= options.lp_max_depth && st.incumbent <> None
    && lp_prune st
  then ()
  else
    match pick_branch st options.branching with
    | None ->
      (* All variables fixed and some row active: propagation has
         already verified minact <= ub on every dirty row, but an
         untouched active row with all vars fixed means its activity is
         exactly minact; verify feasibility directly. *)
      let point = Array.copy st.value in
      if Rows.point_feasible st.sys point then begin
        record_incumbent st point;
        if stop_at_first then raise Exit
      end
    | Some (v, first_value) ->
      let try_value b =
        let mark = st.trail_len in
        let dirty = Queue.create () in
        match
          fix st dirty v b;
          propagate st dirty
        with
        | () ->
          search st options ~stop_at_first ~depth:(depth + 1);
          backtrack st mark
        | exception Conflict -> backtrack st mark
      in
      try_value first_value;
      try_value (1 - first_value)

(* Chaos-test failpoint payloads ({!Ec_util.Fault}): one flipped entry
   of the solution point, or a forged infeasibility verdict. *)
let corrupt_solution rng (s : Ec_ilp.Solution.t) =
  if Array.length s.Ec_ilp.Solution.values = 0 then s
  else begin
    let values = Array.copy s.Ec_ilp.Solution.values in
    let i = Ec_util.Rng.int rng (Array.length values) in
    values.(i) <- 1.0 -. values.(i);
    { s with Ec_ilp.Solution.values }
  end

let forge_infeasible (s : Ec_ilp.Solution.t) =
  match s.Ec_ilp.Solution.status with
  | Ec_ilp.Solution.Optimal | Ec_ilp.Solution.Feasible -> Ec_ilp.Solution.infeasible
  | Ec_ilp.Solution.Infeasible | Ec_ilp.Solution.Unbounded | Ec_ilp.Solution.Unknown -> s

let run ?(options = default_options) ~stop_at_first model =
  Ec_util.Fault.maybe_raise "bnb.solve";
  let options = { options with budget = Ec_util.Fault.burn "bnb.solve" options.budget } in
  let sys = Rows.of_model model in
  let st = make_state sys in
  st.budget <- options.budget;
  st.gauge <- Ec_util.Budget.start options.budget;
  let pivots0 = Ec_simplex.Simplex.iterations_performed () in
  (match options.tie_seed with
  | Some seed -> st.tie_rng <- Some (Ec_util.Rng.create seed)
  | None -> ());
  let complete, reason =
    (* Root propagation: every row starts dirty. *)
    let dirty = Queue.create () in
    Array.iteri (fun r _ -> Queue.push r dirty) sys.Rows.rows;
    match propagate st dirty with
    | () -> (
      match search st options ~stop_at_first ~depth:0 with
      | () -> (true, Ec_util.Budget.Completed)
      | exception Exit ->
        (* First solution requested and found: a point exists but its
           optimality was not proved. *)
        (false, Ec_util.Budget.Completed)
      | exception Out_of_budget r -> (false, r))
    | exception Conflict -> (true, Ec_util.Budget.Completed)
    (* root conflict: proved infeasible *)
  in
  let stats =
    { nodes = st.nodes;
      conflicts = st.conflicts;
      propagated_fixes = st.propagated_fixes;
      lp_calls = st.lp_calls;
      lp_prunes = st.lp_prunes }
  in
  let solution =
    match st.incumbent with
    | Some point ->
      let values = Array.map float_of_int point in
      let objective = Rows.report_objective sys st.incumbent_obj in
      { Ec_ilp.Solution.status =
          (if complete then Ec_ilp.Solution.Optimal else Ec_ilp.Solution.Feasible);
        values;
        objective }
    | None ->
      if complete then Ec_ilp.Solution.infeasible else Ec_ilp.Solution.unknown
  in
  let solution =
    Ec_util.Fault.point "bnb.answer" ~corrupt:corrupt_solution ~forge:forge_infeasible
      solution
  in
  { solution;
    reason;
    stats;
    counters =
      { Ec_util.Budget.zero with
        spent_conflicts = st.conflicts;
        spent_nodes = st.nodes;
        spent_pivots = Ec_simplex.Simplex.iterations_performed () - pivots0;
        spent_wall_s = Ec_util.Budget.elapsed_s st.gauge } }

let solve_response ?options model = run ?options ~stop_at_first:false model

let solve_decision_response ?options model = run ?options ~stop_at_first:true model
