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
  ub : float array;           (* per row, [sys.rows.(r).ub] *)
  value : int array;          (* -1 unfixed, 0, 1 *)
  minact : float array;       (* per row, given current fixings *)
  maxact : float array;
  (* A row is active while [maxact > ub + eps], i.e. while some
     completion of the current point could still violate it.  The flag,
     the count and the per-variable counts below always equal a recount
     from [maxact]; [fix] and [unfix] move them when a row crosses. *)
  active : bool array;
  mutable nactive : int;
  neg_active : int array;     (* per variable: active rows where its coefficient is < 0 *)
  nonneg_active : int array;  (* ... and where it is >= 0 *)
  dirty : int array;          (* propagation FIFO of row indices *)
  mutable dirty_head : int;
  mutable dirty_tail : int;
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

(* Row [r] crossed the activity threshold: flip its flag and move the
   counts of every variable in it. *)
let toggle_active st r =
  let row = st.sys.Rows.rows.(r) in
  let d = if st.active.(r) then -1 else 1 in
  st.active.(r) <- not st.active.(r);
  st.nactive <- st.nactive + d;
  for k = 0 to Array.length row.Rows.vars - 1 do
    let v = row.Rows.vars.(k) in
    if row.Rows.coeffs.(k) < 0.0 then st.neg_active.(v) <- st.neg_active.(v) + d
    else st.nonneg_active.(v) <- st.nonneg_active.(v) + d
  done

let update_active st r =
  if (st.maxact.(r) > st.ub.(r) +. eps) <> st.active.(r) then toggle_active st r

(* eclint: allow BP001 — placeholder gauge on an unlimited budget;
   solve re-arms the real gauge and owns the Budget.check polls *)
let make_state sys =
  let nrows = Array.length sys.Rows.rows in
  let nnz = sys.Rows.occ_start.(sys.Rows.nvars) in
  let minact = Array.make nrows 0.0 in
  let maxact = Array.make nrows 0.0 in
  Array.iteri
    (fun r row ->
      minact.(r) <- Rows.min_activity row;
      maxact.(r) <- Array.fold_left (fun acc c -> acc +. Float.max 0.0 c) 0.0 row.Rows.coeffs)
    sys.Rows.rows;
  let free_neg_sum = Array.fold_left (fun acc c -> acc +. Float.min 0.0 c) 0.0 sys.Rows.obj in
  let st =
    { sys;
      ub = Array.map (fun row -> row.Rows.ub) sys.Rows.rows;
      value = Array.make sys.Rows.nvars (-1);
      minact;
      maxact;
      active = Array.make nrows false;
      nactive = 0;
      neg_active = Array.make sys.Rows.nvars 0;
      nonneg_active = Array.make sys.Rows.nvars 0;
      (* A propagation pushes at most every row (the root) plus the
         occurrences of each variable it fixes, each fixed once. *)
      dirty = Array.make (max (nrows + nnz) 1) 0;
      dirty_head = 0;
      dirty_tail = 0;
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
  in
  for r = 0 to nrows - 1 do
    update_active st r
  done;
  st

let push_dirty st r =
  st.dirty.(st.dirty_tail) <- r;
  st.dirty_tail <- st.dirty_tail + 1

(* Fixing a variable updates row activities and the objective
   bookkeeping, and queues its rows for re-examination. *)
let fix st v b =
  st.value.(v) <- b;
  st.trail.(st.trail_len) <- v;
  st.trail_len <- st.trail_len + 1;
  let fb = float_of_int b in
  for p = st.sys.Rows.occ_start.(v) to st.sys.Rows.occ_start.(v + 1) - 1 do
    let r = st.sys.Rows.occ_row.(p) and c = st.sys.Rows.occ_coeff.(p) in
    st.minact.(r) <- st.minact.(r) +. ((fb *. c) -. Float.min 0.0 c);
    st.maxact.(r) <- st.maxact.(r) +. ((fb *. c) -. Float.max 0.0 c);
    update_active st r;
    push_dirty st r
  done;
  let oc = st.sys.Rows.obj.(v) in
  st.fixed_cost <- st.fixed_cost +. (fb *. oc);
  st.free_neg_sum <- st.free_neg_sum -. Float.min 0.0 oc

let unfix st v =
  let b = st.value.(v) in
  st.value.(v) <- -1;
  let fb = float_of_int b in
  for p = st.sys.Rows.occ_start.(v) to st.sys.Rows.occ_start.(v + 1) - 1 do
    let r = st.sys.Rows.occ_row.(p) and c = st.sys.Rows.occ_coeff.(p) in
    st.minact.(r) <- st.minact.(r) -. ((fb *. c) -. Float.min 0.0 c);
    st.maxact.(r) <- st.maxact.(r) -. ((fb *. c) -. Float.max 0.0 c);
    update_active st r
  done;
  let oc = st.sys.Rows.obj.(v) in
  st.fixed_cost <- st.fixed_cost -. (fb *. oc);
  st.free_neg_sum <- st.free_neg_sum +. Float.min 0.0 oc

let backtrack st mark =
  while st.trail_len > mark do
    st.trail_len <- st.trail_len - 1;
    unfix st st.trail.(st.trail_len)
  done

(* Propagate to fixpoint from the dirty rows.  @raise Conflict. *)
let propagate st =
  while st.dirty_head < st.dirty_tail do
    let r = st.dirty.(st.dirty_head) in
    st.dirty_head <- st.dirty_head + 1;
    let row = st.sys.Rows.rows.(r) in
    let slack = st.ub.(r) -. st.minact.(r) in
    if slack < -.eps then begin
      st.conflicts <- st.conflicts + 1;
      raise Conflict
    end;
    if st.active.(r) then
      (* Row still active: look for forced variables. *)
      for k = 0 to Array.length row.Rows.vars - 1 do
        let v = row.Rows.vars.(k) in
        if st.value.(v) = -1 then begin
          let c = row.Rows.coeffs.(k) in
          if c > slack +. eps then begin
            st.propagated_fixes <- st.propagated_fixes + 1;
            fix st v 0
          end
          else if -.c > slack +. eps then begin
            st.propagated_fixes <- st.propagated_fixes + 1;
            fix st v 1
          end
        end
      done
  done

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
   rows, or -1 when every variable is fixed.  Optional randomized
   tie-breaking jitters scores below their granularity, so only exact
   ties are reshuffled. *)
let pick_branch st branching =
  let nvars = st.sys.Rows.nvars in
  match branching with
  | First_unfixed ->
    let v = ref 0 in
    while !v < nvars && st.value.(!v) <> -1 do
      incr v
    done;
    if !v < nvars then !v else -1
  | Most_constrained ->
    let best_var = ref (-1) and best_score = ref (-1) in
    for v = 0 to nvars - 1 do
      if st.value.(v) = -1 then begin
        let score = (st.neg_active.(v) + st.nonneg_active.(v)) * 8 in
        let score =
          match st.tie_rng with None -> score | Some rng -> score + Ec_util.Rng.int rng 8
        in
        if score > !best_score then begin
          best_score := score;
          best_var := v
        end
      end
    done;
    !best_var

(* The value to try first: the one deactivating more rows (setting v=1
   lowers maxact where its coefficient is negative, v=0 where it is
   positive), objective sign as tie-break. *)
let first_value st v =
  let one_helps = st.neg_active.(v) and zero_helps = st.nonneg_active.(v) in
  if one_helps > zero_helps then 1
  else if one_helps < zero_helps then 0
  else if st.sys.Rows.obj.(v) > 0.0 then 0
  else 1

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
      if st.active.(r) then begin
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
  else if options.greedy_completion && st.nactive = 0 then begin
    record_incumbent st (greedy_completion st);
    if stop_at_first then raise Exit
  end
  else if
    options.use_lp_bounding && depth <= options.lp_max_depth && st.incumbent <> None
    && lp_prune st
  then ()
  else
    let v = pick_branch st options.branching in
    if v < 0 then begin
      (* All variables fixed and some row active: propagation has
         already verified minact <= ub on every dirty row, but an
         untouched active row with all vars fixed means its activity is
         exactly minact; verify feasibility directly. *)
      let point = Array.copy st.value in
      if Rows.point_feasible st.sys point then begin
        record_incumbent st point;
        if stop_at_first then raise Exit
      end
    end
    else begin
      let b = first_value st v in
      try_value st options ~stop_at_first ~depth v b;
      try_value st options ~stop_at_first ~depth v (1 - b)
    end

and try_value st options ~stop_at_first ~depth v b =
  let mark = st.trail_len in
  st.dirty_head <- 0;
  st.dirty_tail <- 0;
  match
    fix st v b;
    propagate st
  with
  | () ->
    search st options ~stop_at_first ~depth:(depth + 1);
    backtrack st mark
  | exception Conflict -> backtrack st mark

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
    for r = 0 to Array.length sys.Rows.rows - 1 do
      push_dirty st r
    done;
    match propagate st with
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
