type options = {
  max_flips : int;
  max_restarts : int;
  noise : float;
  tabu_tenure : int;
  seed : int;
  stop_at_first_feasible : bool;
  initial_point : int array option;
  budget : Ec_util.Budget.t;
}

let default_options =
  { max_flips = 200_000; max_restarts = 10; noise = 0.12; tabu_tenure = 5; seed = 0x5EED;
    stop_at_first_feasible = false; initial_point = None;
    budget = Ec_util.Budget.unlimited }

(* Tunable surface for the unified config plane.  The budget and
   initial_point (a warm-start array, per-solve runtime state) stay
   outside the spec. *)
let config =
  Ec_util.Config.make ~engine:"heuristic"
    ~doc:"min-conflicts local search for 0-1 models (WalkSAT-style)"
    ~defaults:default_options
    [ Ec_util.Config.int "max_flips" ~doc:"flips per restart"
        ~get:(fun o -> o.max_flips)
        ~set:(fun v o -> { o with max_flips = v });
      Ec_util.Config.int "max_restarts" ~doc:"random restarts before giving up"
        ~get:(fun o -> o.max_restarts)
        ~set:(fun v o -> { o with max_restarts = v });
      Ec_util.Config.float "noise" ~doc:"probability of a random (non-greedy) flip"
        ~get:(fun o -> o.noise)
        ~set:(fun v o -> { o with noise = v });
      Ec_util.Config.int "tabu_tenure" ~doc:"flips during which re-flipping is discouraged"
        ~get:(fun o -> o.tabu_tenure)
        ~set:(fun v o -> { o with tabu_tenure = v });
      Ec_util.Config.int "seed" ~doc:"random-walk seed"
        ~get:(fun o -> o.seed)
        ~set:(fun v o -> { o with seed = v });
      Ec_util.Config.bool "stop_at_first_feasible"
        ~doc:"return on the first feasible point instead of improving the objective"
        ~get:(fun o -> o.stop_at_first_feasible)
        ~set:(fun v o -> { o with stop_at_first_feasible = v }) ]

type stats = {
  flips : int;
  restarts : int;
  feasible_hits : int;
}

type response = {
  solution : Ec_ilp.Solution.t;
  reason : Ec_util.Budget.reason;
  stats : stats;
  counters : Ec_util.Budget.counters;
}

exception Cut of Ec_util.Budget.reason

let eps = 1e-9

type search = {
  sys : Rows.t;
  point : int array;
  act : float array;               (* row activities at [point] *)
  violated : int array;            (* violated row indices, dense prefix *)
  mutable nviolated : int;
  vpos : int array;                (* position of each row in [violated], -1 if absent *)
  last_flip : int array;           (* flip counter at last flip of each var *)
  mutable flip_count : int;
}

let violation s r = s.act.(r) -. s.sys.Rows.rows.(r).Rows.ub

let mark_violated s r =
  if s.vpos.(r) = -1 then begin
    s.violated.(s.nviolated) <- r;
    s.vpos.(r) <- s.nviolated;
    s.nviolated <- s.nviolated + 1
  end

let unmark_violated s r =
  let p = s.vpos.(r) in
  if p >= 0 then begin
    let last = s.violated.(s.nviolated - 1) in
    s.violated.(p) <- last;
    s.vpos.(last) <- p;
    s.nviolated <- s.nviolated - 1;
    s.vpos.(r) <- -1
  end

let recompute s =
  Array.iteri
    (fun r row ->
      let a = ref 0.0 in
      Array.iteri
        (fun k v -> a := !a +. (row.Rows.coeffs.(k) *. float_of_int s.point.(v)))
        row.Rows.vars;
      s.act.(r) <- !a)
    s.sys.Rows.rows;
  s.nviolated <- 0;
  Array.fill s.vpos 0 (Array.length s.vpos) (-1);
  Array.iteri (fun r _ -> if violation s r > eps then mark_violated s r) s.sys.Rows.rows

(* Change in total violation magnitude if [v] flipped. *)
let flip_delta s v =
  let cur = s.point.(v) in
  let d = if cur = 0 then 1.0 else -1.0 in
  let acc = ref 0.0 in
  for p = s.sys.Rows.occ_start.(v) to s.sys.Rows.occ_start.(v + 1) - 1 do
    let r = s.sys.Rows.occ_row.(p) in
    let ub = s.sys.Rows.rows.(r).Rows.ub in
    let before = Float.max 0.0 (s.act.(r) -. ub) in
    let after = Float.max 0.0 (s.act.(r) +. (d *. s.sys.Rows.occ_coeff.(p)) -. ub) in
    acc := !acc +. (after -. before)
  done;
  !acc

let do_flip s v =
  let cur = s.point.(v) in
  let d = if cur = 0 then 1.0 else -1.0 in
  s.point.(v) <- 1 - cur;
  s.flip_count <- s.flip_count + 1;
  s.last_flip.(v) <- s.flip_count;
  for p = s.sys.Rows.occ_start.(v) to s.sys.Rows.occ_start.(v + 1) - 1 do
    let r = s.sys.Rows.occ_row.(p) in
    s.act.(r) <- s.act.(r) +. (d *. s.sys.Rows.occ_coeff.(p));
    if violation s r > eps then mark_violated s r else unmark_violated s r
  done

let random_point rng s =
  for v = 0 to Array.length s.point - 1 do
    s.point.(v) <- (if Ec_util.Rng.bool rng then 1 else 0)
  done;
  recompute s

(* Pick the move for one violated row: greedy best-delta flip with tabu
   (aspiration: a strictly improving move is always allowed), or a
   random member under noise. *)
let pick_move rng opts s row =
  let vars = s.sys.Rows.rows.(row).Rows.vars in
  if Array.length vars = 0 then None
  else if Ec_util.Rng.float rng < opts.noise then
    Some vars.(Ec_util.Rng.int rng (Array.length vars))
  else begin
    let best = ref (-1) in
    let best_delta = ref infinity in
    Array.iter
      (fun v ->
        let tabu = s.flip_count - s.last_flip.(v) < opts.tabu_tenure in
        let delta = flip_delta s v in
        let allowed = (not tabu) || delta < -.eps in
        if allowed && delta < !best_delta -. eps then begin
          best := v;
          best_delta := delta
        end)
      vars;
    if !best = -1 then Some vars.(Ec_util.Rng.int rng (Array.length vars)) else Some !best
  end

let solve_response ?(options = default_options) model =
  Ec_util.Fault.maybe_raise "heuristic.solve";
  let options =
    { options with budget = Ec_util.Fault.burn "heuristic.solve" options.budget }
  in
  let gauge = Ec_util.Budget.start options.budget in
  let sys = Rows.of_model model in
  let nrows = Array.length sys.Rows.rows in
  let s =
    { sys;
      point = Array.make sys.Rows.nvars 0;
      act = Array.make nrows 0.0;
      violated = Array.make (max nrows 1) 0;
      nviolated = 0;
      vpos = Array.make (max nrows 1) (-1);
      last_flip = Array.make (max sys.Rows.nvars 1) (-1000);
      flip_count = 0 }
  in
  let rng = Ec_util.Rng.create options.seed in
  let best = ref None in
  let best_obj = ref infinity in
  let feasible_hits = ref 0 in
  let total_flips = ref 0 in
  let restarts_done = ref 0 in
  let reason = ref Ec_util.Budget.Completed in
  (try
     for restart = 1 to max 1 options.max_restarts do
       restarts_done := restart;
       (match options.initial_point with
       | Some p when restart = 1 ->
         (* Warm start: seed from the given point (padded/truncated to
            the model arity), later restarts explore randomly. *)
         let k = min (Array.length p) (Array.length s.point) in
         Array.blit p 0 s.point 0 k;
         for v = k to Array.length s.point - 1 do
           s.point.(v) <- 0
         done;
         recompute s
       | Some _ | None -> random_point rng s);
       let flips = ref 0 in
       while !flips < options.max_flips do
         (match Ec_util.Budget.check gauge ~iterations:!total_flips with
         | Some r -> raise (Cut r)
         | None -> ());
         if s.nviolated = 0 then begin
           incr feasible_hits;
           let obj = Rows.internal_objective sys s.point in
           if obj < !best_obj -. eps then begin
             best := Some (Array.copy s.point);
             best_obj := obj
           end;
           if options.stop_at_first_feasible then raise Exit;
           (* Perturb: flip a few random variables to keep exploring
              (greedy objective descent would need feasibility-aware
              moves; a kick is simpler and adequate here). *)
           if sys.Rows.nvars = 0 then raise Exit;
           for _ = 1 to max 1 (sys.Rows.nvars / 20) do
             do_flip s (Ec_util.Rng.int rng sys.Rows.nvars)
           done
         end
         else begin
           let row = s.violated.(Ec_util.Rng.int rng s.nviolated) in
           (match pick_move rng options s row with
           | Some v -> do_flip s v
           | None ->
             (* Empty violated row can never be fixed: give up. *)
             flips := options.max_flips)
         end;
         incr flips;
         incr total_flips
       done
     done
   with
  | Exit -> ()
  | Cut r -> reason := r);
  let stats = { flips = !total_flips; restarts = !restarts_done; feasible_hits = !feasible_hits } in
  let solution =
    match !best with
    | Some point ->
      { Ec_ilp.Solution.status = Ec_ilp.Solution.Feasible;
        values = Array.map float_of_int point;
        objective = Rows.report_objective sys !best_obj }
    | None -> Ec_ilp.Solution.unknown
  in
  let solution =
    Ec_util.Fault.point "heuristic.answer" ~corrupt:Bnb.corrupt_solution
      ~forge:Bnb.forge_infeasible solution
  in
  { solution;
    reason = !reason;
    stats;
    counters =
      { Ec_util.Budget.zero with
        spent_restarts = !restarts_done;
        spent_iterations = !total_flips;
        spent_wall_s = Ec_util.Budget.elapsed_s gauge } }
