type options = {
  var_decay : float;
  restart_base : int;
  budget : Ec_util.Budget.t;
  phase_hint : Ec_cnf.Assignment.t option;
  seed : int;
}

let default_options =
  { var_decay = 0.95;
    restart_base = 100;
    budget = Ec_util.Budget.unlimited;
    phase_hint = None;
    seed = 91 }

(* Tunable surface for the unified config plane (Ec_util.Config).
   Budget and phase_hint stay outside the spec: they are per-solve
   runtime state, not algorithm shape. *)
let config =
  Ec_util.Config.make ~engine:"cdcl"
    ~doc:"clause-learning SAT solver (VSIDS, Luby restarts, phase saving)"
    ~defaults:default_options
    [ Ec_util.Config.float "var_decay" ~doc:"VSIDS activity decay per conflict"
        ~get:(fun o -> o.var_decay)
        ~set:(fun v o -> { o with var_decay = v });
      Ec_util.Config.int "restart_base" ~doc:"conflicts per Luby restart unit"
        ~get:(fun o -> o.restart_base)
        ~set:(fun v o -> { o with restart_base = v });
      Ec_util.Config.int "seed" ~doc:"initial variable-order randomization seed"
        ~get:(fun o -> o.seed)
        ~set:(fun v o -> { o with seed = v }) ]

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_clauses : int;
  deleted_clauses : int;
}

type response = {
  outcome : Outcome.t;
  reason : Ec_util.Budget.reason;
  stats : stats;
  counters : Ec_util.Budget.counters;
}

(* Internal encoding: variable v in [0,n); literal 2v positive, 2v+1
   negative.  Values: -1 undefined, 0 false, 1 true. *)

let lit_of_dimacs l = if l > 0 then 2 * (l - 1) else (2 * (-l - 1)) + 1

let var_of_dimacs x = x - 1

let dimacs_of_lit l = if l land 1 = 0 then (l lsr 1) + 1 else -((l lsr 1) + 1)

let neg l = l lxor 1

let var_of l = l lsr 1

let is_pos l = l land 1 = 0

type clause = {
  mutable lits : int array;
  learnt : bool;
  mutable activity : float;
  mutable lbd : int;
  mutable deleted : bool;
}

type solver = {
  nvars : int;
  (* assignment state *)
  assigns : int array;          (* per var: -1/0/1 *)
  level : int array;            (* per var *)
  reason : clause option array; (* per var *)
  trail : int array;            (* literals in assignment order *)
  mutable trail_len : int;
  trail_lim : int array;        (* trail length at each decision level *)
  mutable ndecisions : int;     (* = current decision level *)
  mutable qhead : int;
  (* clauses *)
  mutable clauses : clause list;        (* problem clauses *)
  mutable learnts : clause list;
  mutable n_learnts : int;
  watches : clause Ec_util.Vec.t array; (* per literal *)
  (* branching *)
  heap : Ec_util.Idx_heap.t;
  phase : bool array;
  mutable var_inc : float;
  var_decay : float;
  (* analyze scratch *)
  seen : bool array;
  (* counters *)
  mutable stat_decisions : int;
  mutable stat_propagations : int;
  mutable stat_conflicts : int;
  mutable stat_restarts : int;
  mutable stat_learnt : int;
  mutable stat_deleted : int;
}

(* eclint: allow DS001 — immutable-in-practice sentinel: written by no
   one; only ever compared against by identity as the reason slot filler *)
let dummy_clause = { lits = [||]; learnt = false; activity = 0.0; lbd = 0; deleted = true }

let value_var s v = s.assigns.(v)

let value_lit s l =
  let a = s.assigns.(var_of l) in
  if a < 0 then -1 else if is_pos l then a else 1 - a

let create_solver_raw (options : options) n =
  let s =
    { nvars = n;
      assigns = Array.make (max n 1) (-1);
      level = Array.make (max n 1) 0;
      reason = Array.make (max n 1) None;
      trail = Array.make (max n 1) 0;
      trail_len = 0;
      trail_lim = Array.make (max n 1) 0;
      ndecisions = 0;
      qhead = 0;
      clauses = [];
      learnts = [];
      n_learnts = 0;
      watches = Array.init (max (2 * n) 1) (fun _ -> Ec_util.Vec.create ~dummy:dummy_clause ());
      heap = Ec_util.Idx_heap.create (max n 1);
      phase = Array.make (max n 1) false;
      var_inc = 1.0;
      var_decay = options.var_decay;
      seen = Array.make (max n 1) false;
      stat_decisions = 0;
      stat_propagations = 0;
      stat_conflicts = 0;
      stat_restarts = 0;
      stat_learnt = 0;
      stat_deleted = 0 }
  in
  (match options.phase_hint with
  | None -> ()
  | Some a ->
    let hint_n = min n (Ec_cnf.Assignment.num_vars a) in
    for v = 1 to hint_n do
      match Ec_cnf.Assignment.value a v with
      | Ec_cnf.Assignment.True -> s.phase.(v - 1) <- true
      | Ec_cnf.Assignment.False | Ec_cnf.Assignment.Dc -> ()
    done);
  (* Slightly randomized initial order so reruns with different seeds
     explore differently. *)
  let rng = Ec_util.Rng.create options.seed in
  for v = 0 to n - 1 do
    Ec_util.Idx_heap.set_priority s.heap v (Ec_util.Rng.float rng *. 1e-6);
    Ec_util.Idx_heap.insert s.heap v
  done;
  s

let create_solver (options : options) formula =
  create_solver_raw options (Ec_cnf.Formula.num_vars formula)

let var_bump s v =
  let p = Ec_util.Idx_heap.priority s.heap v +. s.var_inc in
  Ec_util.Idx_heap.set_priority s.heap v p;
  if p > 1e100 then begin
    Ec_util.Idx_heap.rescale s.heap 1e-100;
    s.var_inc <- s.var_inc *. 1e-100
  end

let var_decay_tick s = s.var_inc <- s.var_inc /. s.var_decay

let watch s l c = Ec_util.Vec.push s.watches.(l) c

let attach s c =
  watch s c.lits.(0) c;
  watch s c.lits.(1) c

(* Enqueue a literal as true, with an optional reason clause. *)
let enqueue s l reason =
  let v = var_of l in
  s.assigns.(v) <- (if is_pos l then 1 else 0);
  s.level.(v) <- s.ndecisions;
  s.reason.(v) <- reason;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

(* Load one problem clause (DIMACS literals) at decision level 0.
   Returns false on an immediate contradiction. *)
let load_clause s dimacs_lits =
  assert (s.ndecisions = 0);
  let lits = Array.map lit_of_dimacs dimacs_lits in
  match Array.length lits with
  | 0 -> false
  | 1 -> (
    match value_lit s lits.(0) with
    | 1 -> true
    | 0 -> false
    | _ ->
      enqueue s lits.(0) None;
      true)
  | _ ->
    (* If some literal is already true at level 0 the clause is
       permanently satisfied but attaching it is still sound; if all
       literals are false at level 0 the formula is contradictory,
       which propagation will discover since both watches are false —
       force a check by watching two arbitrary literals and letting the
       caller propagate. *)
    let cl = { lits; learnt = false; activity = 0.0; lbd = 0; deleted = false } in
    s.clauses <- cl :: s.clauses;
    attach s cl;
    true


let new_decision_level s =
  s.trail_lim.(s.ndecisions) <- s.trail_len;
  s.ndecisions <- s.ndecisions + 1

let backtrack s target_level =
  if s.ndecisions > target_level then begin
    let bound = s.trail_lim.(target_level) in
    for i = s.trail_len - 1 downto bound do
      let l = s.trail.(i) in
      let v = var_of l in
      s.assigns.(v) <- -1;
      s.reason.(v) <- None;
      s.phase.(v) <- is_pos l;
      Ec_util.Idx_heap.insert s.heap v
    done;
    s.trail_len <- bound;
    s.qhead <- bound;
    s.ndecisions <- target_level
  end

(* Two-watched-literal propagation.  Returns the conflicting clause if
   any. *)
let propagate s =
  let conflict = ref None in
  while !conflict = None && s.qhead < s.trail_len do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.stat_propagations <- s.stat_propagations + 1;
    let false_lit = neg p in
    let ws = s.watches.(false_lit) in
    let n = Ec_util.Vec.length ws in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let c = Ec_util.Vec.get ws !i in
      incr i;
      if not c.deleted then begin
        let lits = c.lits in
        (* Put the false literal at position 1. *)
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        let first = lits.(0) in
        if value_lit s first = 1 then begin
          (* Clause already satisfied: keep the watch. *)
          Ec_util.Vec.set ws !j c;
          incr j
        end
        else begin
          (* Look for a replacement watch. *)
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && value_lit s lits.(!k) = 0 do
            incr k
          done;
          if !k < len then begin
            (* Move the watch. *)
            lits.(1) <- lits.(!k);
            lits.(!k) <- false_lit;
            watch s lits.(1) c
          end
          else begin
            (* Unit or conflicting. *)
            Ec_util.Vec.set ws !j c;
            incr j;
            if value_lit s first = 0 then begin
              (* Conflict: keep remaining watches and stop. *)
              while !i < n do
                Ec_util.Vec.set ws !j (Ec_util.Vec.get ws !i);
                incr j;
                incr i
              done;
              s.qhead <- s.trail_len;
              conflict := Some c
            end
            else enqueue s first (Some c)
          end
        end
      end
    done;
    Ec_util.Vec.shrink ws !j
  done;
  !conflict

(* First-UIP learning.  Returns (learnt literals with the asserting
   literal first, backtrack level, lbd). *)
let analyze s confl =
  let learnt = ref [] in
  let touched = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref (Some confl) in
  let index = ref (s.trail_len - 1) in
  let continue = ref true in
  while !continue do
    let c = match !confl with Some c -> c | None -> assert false in
    if c.learnt then c.activity <- c.activity +. 1.0;
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = var_of q in
          if (not s.seen.(v)) && s.level.(v) > 0 then begin
            s.seen.(v) <- true;
            touched := v :: !touched;
            var_bump s v;
            if s.level.(v) >= s.ndecisions then incr counter
            else learnt := q :: !learnt
          end
        end)
      c.lits;
    (* Select the next trail literal to expand. *)
    let rec find_next i = if s.seen.(var_of s.trail.(i)) then i else find_next (i - 1) in
    index := find_next !index;
    let pl = s.trail.(!index) in
    p := pl;
    s.seen.(var_of pl) <- false;
    decr index;
    decr counter;
    if !counter = 0 then continue := false
    else confl := s.reason.(var_of pl)
  done;
  let uip = neg !p in
  (* Minimize: drop literals whose reason is entirely covered by other
     seen literals (local minimization). *)
  let is_redundant q =
    match s.reason.(var_of q) with
    | None -> false
    | Some rc ->
      Array.for_all
        (fun l -> l = neg q || s.seen.(var_of l) || s.level.(var_of l) = 0)
        rc.lits
  in
  let kept = List.filter (fun q -> not (is_redundant q)) !learnt in
  List.iter (fun v -> s.seen.(v) <- false) !touched;
  (* Backtrack level: highest level among kept literals. *)
  let bt_level, lbd =
    match kept with
    | [] -> (0, 1)
    | _ ->
      let levels = List.sort_uniq Int.compare (List.map (fun q -> s.level.(var_of q)) kept) in
      (List.fold_left max 0 (List.map (fun q -> s.level.(var_of q)) kept),
       1 + List.length levels)
  in
  (* Order: asserting literal first, then a literal of bt_level second
     (to be the other watch). *)
  let kept =
    match List.partition (fun q -> s.level.(var_of q) = bt_level) kept with
    | at_bt :: rest_bt, others -> (at_bt :: rest_bt) @ others
    | [], others -> others
  in
  (Array.of_list (uip :: kept), bt_level, lbd)

let learn s lits lbd =
  if Array.length lits = 1 then begin
    backtrack s 0;
    enqueue s lits.(0) None
  end
  else begin
    let c = { lits; learnt = true; activity = 1.0; lbd; deleted = false } in
    s.learnts <- c :: s.learnts;
    s.n_learnts <- s.n_learnts + 1;
    s.stat_learnt <- s.stat_learnt + 1;
    attach s c;
    enqueue s lits.(0) (Some c)
  end

let locked s c =
  Array.length c.lits > 0
  &&
  let v = var_of c.lits.(0) in
  (match s.reason.(v) with Some rc -> rc == c | None -> false)
  && value_lit s c.lits.(0) = 1

(* Delete the worst half of the learnt clauses (high LBD, low
   activity), keeping binary, low-LBD and reason clauses. *)
let reduce_db s =
  let cmp a b =
    let c = Int.compare a.lbd b.lbd in
    if c <> 0 then c else Float.compare b.activity a.activity
  in
  let sorted = List.sort cmp s.learnts in
  let total = s.n_learnts in
  let keep_target = total / 2 in
  let kept = ref [] in
  let nkept = ref 0 in
  List.iteri
    (fun rank c ->
      if rank < keep_target || c.lbd <= 3 || Array.length c.lits <= 2 || locked s c
      then begin
        kept := c :: !kept;
        incr nkept
      end
      else begin
        c.deleted <- true;
        s.stat_deleted <- s.stat_deleted + 1
      end)
    sorted;
  s.learnts <- !kept;
  s.n_learnts <- !nkept

(* luby i (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let rec find k = if (1 lsl k) - 1 >= i then k else find (k + 1) in
  let k = find 1 in
  if (1 lsl k) - 1 = i then float_of_int (1 lsl (k - 1))
  else luby (i - (1 lsl (k - 1)) + 1)

(* Final-conflict analysis (MiniSat's analyzeFinal): which assumptions
   force the failed assumption [a] to be false under the current trail.
   Walks the trail top-down from the first decision, expanding reasons
   of marked variables; every decision met this way is an assumption
   responsible for the failure (branching has not started whenever an
   assumption fails, so all decisions in range are assumptions).  The
   returned core — [a] plus the responsible decision literals — is a
   subset of the assumptions whose conjunction the formula refutes. *)
let analyze_final s a =
  let core = ref [ a ] in
  if s.ndecisions > 0 then begin
    let v0 = var_of a in
    s.seen.(v0) <- true;
    let bottom = s.trail_lim.(0) in
    for i = s.trail_len - 1 downto bottom do
      let l = s.trail.(i) in
      let x = var_of l in
      if s.seen.(x) then begin
        (match s.reason.(x) with
        | None -> core := l :: !core
        | Some c ->
          Array.iter
            (fun q ->
              let qv = var_of q in
              if qv <> x && s.level.(qv) > 0 then s.seen.(qv) <- true)
            c.lits);
        s.seen.(x) <- false
      end
    done;
    s.seen.(v0) <- false
  end;
  !core

(* [R_unsat core]: unsatisfiable, with the responsible assumption
   literals (internal encoding).  An empty core means the formula is
   unsatisfiable regardless of assumptions. *)
type search_result = R_sat | R_unsat of int list | R_unknown of Ec_util.Budget.reason

(* [check] reports the first exhausted budget dimension relative to the
   start of this solve (sessions keep cumulative counters, so the caller
   supplies the baseline). *)
let search s (options : options) ~check assumptions =
  let spent () = check () in
  let restart_limit = ref (luby 1 *. float_of_int options.restart_base) in
  let conflicts_since_restart = ref 0 in
  let max_learnts = ref (max 4000 (List.length s.clauses / 2)) in
  let assumptions = Array.of_list (List.map lit_of_dimacs assumptions) in
  let result = ref None in
  (* A budget exhausted (or cancelled) before the solve starts stops it
     even on trivially decidable formulas. *)
  (match spent () with Some r -> result := Some (R_unknown r) | None -> ());
  while !result = None do
    match propagate s with
    | Some confl ->
      s.stat_conflicts <- s.stat_conflicts + 1;
      incr conflicts_since_restart;
      if s.ndecisions = 0 then result := Some (R_unsat [])
      else begin
        match spent () with
        | Some r -> result := Some (R_unknown r)
        | None ->
          let lits, bt_level, lbd = analyze s confl in
          backtrack s bt_level;
          learn s lits lbd;
          var_decay_tick s
      end
    | None ->
      if s.trail_len = s.nvars then begin
        (* Every variable is assigned; the point is a model of the
           clauses, but assumptions not yet re-decided must be checked
           explicitly. *)
        let violated = Array.to_seq assumptions |> Seq.find (fun a -> value_lit s a = 0) in
        result :=
          Some
            (match violated with
            | Some a -> R_unsat (analyze_final s a)
            | None -> R_sat)
      end
      else if float_of_int !conflicts_since_restart >= !restart_limit then begin
        (* Restart: back to level 0; assumptions are re-decided. *)
        s.stat_restarts <- s.stat_restarts + 1;
        conflicts_since_restart := 0;
        restart_limit :=
          luby (s.stat_restarts + 1) *. float_of_int options.restart_base;
        backtrack s 0
      end
      else if s.n_learnts > !max_learnts then begin
        reduce_db s;
        max_learnts := !max_learnts + (!max_learnts / 10)
      end
      else if s.ndecisions < Array.length assumptions then begin
        (* Re-establish the next assumption as a decision. *)
        let a = assumptions.(s.ndecisions) in
        match value_lit s a with
        | 1 -> new_decision_level s (* already true: placeholder level *)
        | 0 ->
          (* Conflicts with the trail: unsat under assumptions. *)
          result := Some (R_unsat (analyze_final s a))
        | _ ->
          new_decision_level s;
          enqueue s a None
      end
      else begin
        (* Branch. *)
        let rec pick () =
          if Ec_util.Idx_heap.is_empty s.heap then -1
          else
            let v = Ec_util.Idx_heap.pop_max s.heap in
            if value_var s v < 0 then v else pick ()
        in
        let v = pick () in
        if v = -1 then result := Some R_sat
        else begin
          match spent () with
          | Some r -> result := Some (R_unknown r)
          | None ->
            s.stat_decisions <- s.stat_decisions + 1;
            new_decision_level s;
            enqueue s ((2 * v) lor (if s.phase.(v) then 0 else 1)) None
        end
      end
  done;
  match !result with Some r -> r | None -> assert false

(* The model over DIMACS variables [1..nvars], [nvars <= s.nvars]. *)
let extract_assignment s nvars =
  Ec_cnf.Assignment.init nvars (fun x ->
      let v = var_of_dimacs x in
      match s.assigns.(v) with
      | 1 -> Ec_cnf.Assignment.True
      | 0 -> Ec_cnf.Assignment.False
      | _ -> if s.phase.(v) then Ec_cnf.Assignment.True else Ec_cnf.Assignment.False)

let stats_of s =
  { decisions = s.stat_decisions;
    propagations = s.stat_propagations;
    conflicts = s.stat_conflicts;
    restarts = s.stat_restarts;
    learnt_clauses = s.stat_learnt;
    deleted_clauses = s.stat_deleted }

let counters_of s ~wall_s : Ec_util.Budget.counters =
  { Ec_util.Budget.zero with
    spent_conflicts = s.stat_conflicts;
    spent_nodes = s.stat_decisions;
    spent_restarts = s.stat_restarts;
    spent_wall_s = wall_s }

let solve_response ?(options = default_options) ?(assumptions = []) formula =
  Ec_util.Fault.maybe_raise "cdcl.solve";
  let options = { options with budget = Ec_util.Fault.burn "cdcl.solve" options.budget } in
  let gauge = Ec_util.Budget.start options.budget in
  let s = create_solver options formula in
  let contradiction = ref false in
  Ec_cnf.Formula.iteri
    (fun _ c ->
      if not !contradiction then
        if not (load_clause s (Ec_cnf.Clause.lits c)) then contradiction := true)
    formula;
  let check () =
    Ec_util.Budget.check gauge ~conflicts:s.stat_conflicts ~nodes:s.stat_decisions
  in
  let outcome, reason =
    if !contradiction then (Outcome.Unsat, Ec_util.Budget.Completed)
    else
      match search s options ~check assumptions with
      | R_sat -> (Outcome.Sat (extract_assignment s s.nvars), Ec_util.Budget.Completed)
      | R_unsat _ -> (Outcome.Unsat, Ec_util.Budget.Completed)
      | R_unknown r -> (Outcome.Unknown r, r)
  in
  let outcome =
    Ec_util.Fault.point "cdcl.answer" ~corrupt:Outcome.corrupt ~forge:Outcome.forge_unsat
      outcome
  in
  { outcome;
    reason;
    stats = stats_of s;
    counters = counters_of s ~wall_s:(Ec_util.Budget.elapsed_s gauge) }

(* ---- incremental sessions ---- *)

module Session = struct
  type session = {
    options : options;
    mutable s : solver;
    mutable logical_nvars : int;  (* variables the user has named *)
    mutable posted : int array list; (* all problem clauses, for rebuilds *)
    mutable dead : bool;          (* proved unsat without assumptions *)
    mutable solves : int;
  }

  type t = session

  (* Capacity headroom so that growing by a few EC variables does not
     force a rebuild. *)
  let capacity_for n = n + (n / 2) + 16

  let fresh options nvars posted_rev =
    let s = create_solver_raw options (capacity_for nvars) in
    let dead = ref false in
    List.iter
      (fun lits -> if not !dead then if not (load_clause s lits) then dead := true)
      (List.rev posted_rev);
    (s, !dead)

  let create ?(options = default_options) formula =
    let posted = ref [] in
    Ec_cnf.Formula.iteri
      (fun _ c -> posted := Ec_cnf.Clause.lits c :: !posted)
      formula;
    let nvars = Ec_cnf.Formula.num_vars formula in
    let s, dead = fresh options nvars !posted in
    { options; s; logical_nvars = nvars; posted = !posted; dead; solves = 0 }

  let num_vars t = t.logical_nvars

  let add_clause t clause =
    let lits = Ec_cnf.Clause.lits clause in
    t.posted <- lits :: t.posted;
    let mv = Ec_cnf.Clause.max_var clause in
    if mv > t.logical_nvars then t.logical_nvars <- mv;
    if t.dead then ()
    else if t.logical_nvars > t.s.nvars then begin
      (* Out of headroom: rebuild (losing learnt clauses, keeping
         soundness).  Rare by construction of [capacity_for]. *)
      let s, dead = fresh t.options t.logical_nvars t.posted in
      t.s <- s;
      t.dead <- dead
    end
    else begin
      backtrack t.s 0;
      if not (load_clause t.s lits) then t.dead <- true
      else
        (* A clause whose watched literals are already false at level 0
           would never be revisited (watch lists fire on new enqueues
           only): rewind the propagation head so the next solve
           re-scans the root trail and catches the conflict. *)
        t.s.qhead <- 0
    end

  let add_clauses t clauses = List.iter (add_clause t) clauses

  type core_response = {
    outcome : Outcome.t;
    core : Ec_cnf.Lit.t list;
    counters : Ec_util.Budget.counters;
  }

  let solve_with_core ?(assumptions = []) ?budget t =
    t.solves <- t.solves + 1;
    if t.dead then
      { outcome = Outcome.Unsat; core = []; counters = Ec_util.Budget.zero }
    else begin
      backtrack t.s 0;
      (* Per-solve gauge: the session's budget is an allowance for each
         [solve] call, not for the session's whole lifetime, so the
         cumulative session counters are rebased here.  A per-call
         [budget] (the serve daemon's per-request deadline) is
         intersected with the session's own; putting it first keeps
         its cancellation flag live, which is what the daemon's
         watchdog pulls. *)
      let limit =
        match budget with
        | None -> t.options.budget
        | Some b -> Ec_util.Budget.combine b t.options.budget
      in
      let gauge = Ec_util.Budget.start limit in
      let conflicts0 = t.s.stat_conflicts and nodes0 = t.s.stat_decisions in
      let check () =
        Ec_util.Budget.check gauge
          ~conflicts:(t.s.stat_conflicts - conflicts0)
          ~nodes:(t.s.stat_decisions - nodes0)
      in
      let result = search t.s t.options ~check assumptions in
      let counters =
        { Ec_util.Budget.zero with
          spent_conflicts = t.s.stat_conflicts - conflicts0;
          spent_nodes = t.s.stat_decisions - nodes0;
          spent_wall_s = Ec_util.Budget.elapsed_s gauge }
      in
      match result with
      | R_sat ->
        (* The model covers the named variables, not the capacity. *)
        { outcome = Outcome.Sat (extract_assignment t.s t.logical_nvars); core = []; counters }
      | R_unsat core ->
        if assumptions = [] then t.dead <- true;
        { outcome = Outcome.Unsat; core = List.map dimacs_of_lit core; counters }
      | R_unknown r -> { outcome = Outcome.Unknown r; core = []; counters }
    end

  let solve ?assumptions ?budget t = (solve_with_core ?assumptions ?budget t).outcome

  let solve_count t = t.solves
end
