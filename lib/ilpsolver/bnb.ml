type branching = First_unfixed | Most_constrained

type options = {
  branching : branching;
  budget : Ec_util.Budget.t;
  greedy_completion : bool;
  tie_seed : int option;
}

let default_options =
  { branching = Most_constrained;
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
  mutable gauge : Ec_util.Budget.gauge;
  mutable tie_rng : Ec_util.Rng.t option;
}

(* Row [r] crossed the activity threshold: flip its flag and move the
   counts of every variable in it. *)
let toggle_active st r =
  let sys = st.sys in
  let d = if st.active.(r) then -1 else 1 in
  st.active.(r) <- not st.active.(r);
  st.nactive <- st.nactive + d;
  for p = sys.Rows.row_start.(r) to sys.Rows.row_start.(r + 1) - 1 do
    let v = sys.Rows.row_var.(p) in
    if sys.Rows.row_coeff.(p) < 0.0 then st.neg_active.(v) <- st.neg_active.(v) + d
    else st.nonneg_active.(v) <- st.nonneg_active.(v) + d
  done

let update_active st r =
  if (st.maxact.(r) > st.sys.Rows.ub.(r) +. eps) <> st.active.(r) then toggle_active st r

(* eclint: allow BP001 — placeholder gauge on an unlimited budget;
   solve re-arms the real gauge and owns the Budget.check polls *)
let make_state sys =
  let nrows = Rows.num_rows sys in
  let nnz = sys.Rows.occ_start.(sys.Rows.nvars) in
  (* Activity bounds with every variable free. *)
  let minact = Array.make nrows 0.0 in
  let maxact = Array.make nrows 0.0 in
  for r = 0 to nrows - 1 do
    let lo = ref 0.0 and hi = ref 0.0 in
    for p = sys.Rows.row_start.(r) to sys.Rows.row_start.(r + 1) - 1 do
      let c = sys.Rows.row_coeff.(p) in
      lo := !lo +. Float.min 0.0 c;
      hi := !hi +. Float.max 0.0 c
    done;
    minact.(r) <- !lo;
    maxact.(r) <- !hi
  done;
  let free_neg_sum = Array.fold_left (fun acc c -> acc +. Float.min 0.0 c) 0.0 sys.Rows.obj in
  let st =
    { sys;
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
    let sys = st.sys in
    let slack = sys.Rows.ub.(r) -. st.minact.(r) in
    if slack < -.eps then begin
      st.conflicts <- st.conflicts + 1;
      raise Conflict
    end;
    if st.active.(r) then
      (* Row still active: look for forced variables. *)
      for p = sys.Rows.row_start.(r) to sys.Rows.row_start.(r + 1) - 1 do
        let v = sys.Rows.row_var.(p) in
        if st.value.(v) = -1 then begin
          let c = sys.Rows.row_coeff.(p) in
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

let check_budget st =
  match Ec_util.Budget.check st.gauge ~conflicts:st.conflicts ~nodes:st.nodes with
  | Some r -> raise (Out_of_budget r)
  | None -> ()

let rec search st options ~stop_at_first =
  st.nodes <- st.nodes + 1;
  check_budget st;
  (* Objective bound from fixed cost plus the best the free vars can do. *)
  let lower = st.fixed_cost +. st.free_neg_sum in
  if lower >= st.incumbent_obj -. eps then ()
  else if options.greedy_completion && st.nactive = 0 then begin
    record_incumbent st (greedy_completion st);
    if stop_at_first then raise Exit
  end
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
      try_value st options ~stop_at_first v b;
      try_value st options ~stop_at_first v (1 - b)
    end

and try_value st options ~stop_at_first v b =
  let mark = st.trail_len in
  st.dirty_head <- 0;
  st.dirty_tail <- 0;
  match
    fix st v b;
    propagate st
  with
  | () ->
    search st options ~stop_at_first;
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
  | Ec_ilp.Solution.Infeasible | Ec_ilp.Solution.Unknown -> s

let run ?(options = default_options) ~stop_at_first model =
  Ec_util.Fault.maybe_raise "bnb.solve";
  let options = { options with budget = Ec_util.Fault.burn "bnb.solve" options.budget } in
  let sys = Rows.of_model model in
  let st = make_state sys in
  st.gauge <- Ec_util.Budget.start options.budget;
  (match options.tie_seed with
  | Some seed -> st.tie_rng <- Some (Ec_util.Rng.create seed)
  | None -> ());
  let complete, reason =
    (* Root propagation: every row starts dirty. *)
    for r = 0 to Rows.num_rows sys - 1 do
      push_dirty st r
    done;
    match propagate st with
    | () -> (
      match search st options ~stop_at_first with
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
      propagated_fixes = st.propagated_fixes }
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
        spent_wall_s = Ec_util.Budget.elapsed_s st.gauge } }

let solve_response ?options model = run ?options ~stop_at_first:false model

let solve_decision_response ?options model = run ?options ~stop_at_first:true model
