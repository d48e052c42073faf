type step =
  | Fixed of int * bool
  | Eliminated of int * Ec_cnf.Lit.t list list
      (* the variable and the live clauses it appeared in, at
         elimination time *)

type result = {
  formula : Ec_cnf.Formula.t;
  fixed : (int * bool) list;
  eliminated : int list;
  clauses_removed : int;
  literals_removed : int;
  steps : step list; (* reverse chronological, for reconstruction *)
}

(* Mutable working state: clauses as sorted literal lists with a dead
   flag, occurrence lists per literal (with stale entries, filtered at
   use). *)
type clause = { mutable lits : Ec_cnf.Lit.t list; mutable dead : bool }

type state = {
  nvars : int;
  clauses : clause array;
  occ : (Ec_cnf.Lit.t, int list ref) Hashtbl.t;
  value : int array; (* 1-based: 0 unset, 1 true, -1 false *)
  mutable steps : step list; (* reverse chronological *)
  mutable units : Ec_cnf.Lit.t list;
  mutable clauses_removed : int;
  mutable literals_removed : int;
}

exception Contradiction

let occ_ref st l =
  match Hashtbl.find_opt st.occ l with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace st.occ l r;
    r

let add_occ st l i =
  let r = occ_ref st l in
  r := i :: !r

let live_occ st l =
  let r = occ_ref st l in
  let live =
    List.filter
      (fun i -> (not st.clauses.(i).dead) && List.mem l st.clauses.(i).lits)
      (List.sort_uniq Int.compare !r)
  in
  r := live;
  live

let lit_value st l =
  let v = st.value.(Ec_cnf.Lit.var l) in
  if v = 0 then 0 else if Ec_cnf.Lit.is_positive l then v else -v

let kill st i =
  if not st.clauses.(i).dead then begin
    st.clauses.(i).dead <- true;
    st.clauses_removed <- st.clauses_removed + 1
  end

let strengthen st i l =
  let c = st.clauses.(i) in
  c.lits <- List.filter (fun x -> not (Ec_cnf.Lit.equal x l)) c.lits;
  st.literals_removed <- st.literals_removed + 1;
  match c.lits with
  | [] -> raise Contradiction
  | [ u ] ->
    st.units <- u :: st.units;
    kill st i
  | _ -> ()

(* Assign a literal true: satisfied clauses die, falsified occurrences
   strengthen away. *)
let assign st l ~record =
  let v = Ec_cnf.Lit.var l in
  let sign = if Ec_cnf.Lit.is_positive l then 1 else -1 in
  if st.value.(v) <> 0 then begin
    if st.value.(v) <> sign then raise Contradiction
  end
  else begin
    st.value.(v) <- sign;
    if record then st.steps <- Fixed (v, sign = 1) :: st.steps;
    List.iter (kill st) (live_occ st l);
    List.iter (fun i -> strengthen st i (Ec_cnf.Lit.negate l)) (live_occ st (Ec_cnf.Lit.negate l))
  end

let propagate_units st =
  let progress = ref false in
  while st.units <> [] do
    match st.units with
    | [] -> ()
    | l :: rest ->
      st.units <- rest;
      if lit_value st l <> 1 then begin
        progress := true;
        assign st l ~record:true
      end
  done;
  !progress

let pure_literals st =
  let progress = ref false in
  for v = 1 to st.nvars do
    if st.value.(v) = 0 then begin
      let pos = live_occ st v <> [] and neg = live_occ st (-v) <> [] in
      if pos && not neg then begin
        progress := true;
        assign st v ~record:true
      end
      else if neg && not pos then begin
        progress := true;
        assign st (-v) ~record:true
      end
      (* variables with no occurrences stay free; the reconstruction
         never needs them *)
    end
  done;
  !progress

let subset a b = List.for_all (fun x -> List.mem x b) a

(* Subsumption + self-subsuming resolution, seeded per live clause. *)
let subsume st =
  let progress = ref false in
  Array.iteri
    (fun i c ->
      if not c.dead then begin
        (* candidates: clauses containing c's first literal (or its
           negation for self-subsumption) *)
        List.iter
          (fun l ->
            (* plain subsumption: c ⊆ d, d dies *)
            List.iter
              (fun j ->
                if j <> i && not st.clauses.(j).dead then
                  if subset c.lits st.clauses.(j).lits then begin
                    progress := true;
                    kill st j
                  end)
              (live_occ st l);
            (* self-subsumption: (c \ {l}) ⊆ (d \ {¬l}) strengthens d *)
            let c_rest = List.filter (fun x -> not (Ec_cnf.Lit.equal x l)) c.lits in
            List.iter
              (fun j ->
                if j <> i && not st.clauses.(j).dead then begin
                  let d = st.clauses.(j) in
                  let neg_l = Ec_cnf.Lit.negate l in
                  if List.mem neg_l d.lits
                     && subset c_rest
                          (List.filter (fun x -> not (Ec_cnf.Lit.equal x neg_l)) d.lits)
                  then begin
                    progress := true;
                    strengthen st j neg_l
                  end
                end)
              (live_occ st (Ec_cnf.Lit.negate l)))
          c.lits
      end)
    st.clauses;
  !progress

let resolvent a b ~pivot =
  (* a contains pivot, b contains ¬pivot *)
  let merged =
    List.filter (fun l -> not (Ec_cnf.Lit.equal l pivot)) a
    @ List.filter (fun l -> not (Ec_cnf.Lit.equal l (Ec_cnf.Lit.negate pivot))) b
  in
  let sorted = List.sort_uniq Ec_cnf.Lit.compare merged in
  let rec tautology = function
    | a :: (b :: _ as rest) ->
      (Ec_cnf.Lit.var a = Ec_cnf.Lit.var b) || tautology rest
    | [ _ ] | [] -> false
  in
  if tautology sorted then None else Some sorted

(* Bounded variable elimination.  Returns new clauses to append.

   The sweep stops as soon as a resolvent unit is queued: a pending
   unit is a clause that occurrence lists cannot see, so eliminating
   any further variable before propagating it would resolve over an
   incomplete clause set (and the reconstruction would be wrong).

   Pending non-unit resolvents only enter the clause array (and the
   occurrence lists) after the sweep, so any variable they mention is
   off limits for the rest of the sweep: its pos/neg lists are
   incomplete, and both the resolution and the saved clauses recorded
   for reconstruction would miss those clauses. *)
let eliminate st ~max_occurrences =
  let appended = ref [] in
  let stop = ref false in
  let pending = Array.make (st.nvars + 1) false in
  for v = 1 to st.nvars do
    if (not !stop) && (not pending.(v)) && st.units = [] && st.value.(v) = 0
    then begin
      let pos = live_occ st v and neg = live_occ st (-v) in
      let np = List.length pos and nn = List.length neg in
      if np > 0 && nn > 0 && np <= max_occurrences && nn <= max_occurrences then begin
        let resolvents =
          List.concat_map
            (fun i ->
              List.filter_map
                (fun j ->
                  resolvent st.clauses.(i).lits st.clauses.(j).lits ~pivot:v)
                neg)
            pos
        in
        if List.length resolvents <= np + nn then begin
          let saved = List.map (fun i -> st.clauses.(i).lits) (pos @ neg) in
          st.steps <- Eliminated (v, saved) :: st.steps;
          st.value.(v) <- 2 (* marker: gone, value chosen at reconstruction *);
          List.iter (kill st) (pos @ neg);
          List.iter
            (fun lits ->
              match lits with
              | [] -> raise Contradiction
              | [ u ] ->
                st.units <- u :: st.units;
                stop := true
              | _ ->
                List.iter (fun l -> pending.(Ec_cnf.Lit.var l) <- true) lits;
                appended := lits :: !appended)
            resolvents
        end
      end
    end
  done;
  !appended

let grow_state st extra_clauses =
  let n_old = Array.length st.clauses in
  let clauses =
    Array.append st.clauses
      (Array.of_list (List.map (fun lits -> { lits; dead = false }) extra_clauses))
  in
  let st = { st with clauses } in
  List.iteri
    (fun k lits -> List.iter (fun l -> add_occ st l (n_old + k)) lits)
    extra_clauses;
  st

let simplify ?(max_occurrences = 10) formula =
  Ec_util.Trace.span ~cat:"preprocess"
    ~args:[ ("clauses", string_of_int (Ec_cnf.Formula.num_clauses formula)) ]
    ~result_args:(function
      | `Unsat -> [ ("result", "unsat") ]
      | `Simplified (r : result) ->
        [ ("result", "simplified");
          ("clauses_removed", string_of_int r.clauses_removed);
          ("literals_removed", string_of_int r.literals_removed) ])
    "preprocess.simplify"
  @@ fun () ->
  let nvars = Ec_cnf.Formula.num_vars formula in
  let clause_list =
    Ec_cnf.Formula.fold
      (fun acc c -> { lits = Array.to_list (Ec_cnf.Clause.lits c); dead = false } :: acc)
      [] formula
    |> List.rev
  in
  let st =
    { nvars;
      clauses = Array.of_list clause_list;
      occ = Hashtbl.create (4 * nvars);
      value = Array.make (nvars + 1) 0;
      steps = [];
      units = [];
      clauses_removed = 0;
      literals_removed = 0 }
  in
  Array.iteri (fun i c -> List.iter (fun l -> add_occ st l i) c.lits) st.clauses;
  match
    (* seed units and empty-clause detection *)
    Array.iteri
      (fun i c ->
        match c.lits with
        | [] -> raise Contradiction
        | [ u ] ->
          st.units <- u :: st.units;
          kill st i
        | _ -> ())
      st.clauses;
    let st = ref st in
    let rec fixpoint rounds =
      if rounds = 0 then ()
      else begin
        let pass name f = Ec_util.Trace.span ~cat:"preprocess" name f in
        let p1 = pass "preprocess.units" (fun () -> propagate_units !st) in
        let p2 = pass "preprocess.pure" (fun () -> pure_literals !st) in
        let p3 = pass "preprocess.subsume" (fun () -> subsume !st) in
        let appended =
          pass "preprocess.eliminate" (fun () -> eliminate !st ~max_occurrences)
        in
        if appended <> [] then st := grow_state !st appended;
        if p1 || p2 || p3 || appended <> [] || !st.units <> [] then fixpoint (rounds - 1)
      end
    in
    fixpoint 12;
    !st
  with
  | exception Contradiction -> `Unsat
  | st ->
    let live =
      Array.to_list st.clauses
      |> List.filter_map (fun c -> if c.dead then None else Some (Ec_cnf.Clause.make c.lits))
    in
    let fixed =
      List.filter_map (function Fixed (v, b) -> Some (v, b) | Eliminated _ -> None) st.steps
    in
    let eliminated =
      List.filter_map (function Eliminated (v, _) -> Some v | Fixed _ -> None) st.steps
    in
    `Simplified
      { formula = Ec_cnf.Formula.create ~num_vars:nvars live;
        fixed;
        eliminated;
        clauses_removed = st.clauses_removed;
        literals_removed = st.literals_removed;
        steps = st.steps }

let reconstruct (r : result) a =
  let n =
    List.fold_left
      (fun m -> function Fixed (v, _) -> max m v | Eliminated (v, _) -> max m v)
      (Ec_cnf.Assignment.num_vars a) r.steps
  in
  let width = Ec_cnf.Assignment.num_vars a in
  let values =
    Array.init (n + 1) (fun v ->
        if v >= 1 && v <= width then Ec_cnf.Assignment.value a v else Ec_cnf.Assignment.Dc)
  in
  let lit_true l =
    values.(Ec_cnf.Lit.var l)
    = if Ec_cnf.Lit.is_positive l then Ec_cnf.Assignment.True else Ec_cnf.Assignment.False
  in
  (* steps are reverse chronological: the head is the last
     simplification performed, which is exactly the first one to
     undo. *)
  List.iter
    (fun step ->
      match step with
      | Fixed (v, b) ->
        values.(v) <- (if b then Ec_cnf.Assignment.True else Ec_cnf.Assignment.False)
      | Eliminated (v, saved) ->
        (* true unless that leaves one of v's saved clauses unsatisfied *)
        values.(v) <- Ec_cnf.Assignment.True;
        if not (List.for_all (List.exists lit_true) saved) then
          values.(v) <- Ec_cnf.Assignment.False)
    r.steps;
  Ec_cnf.Assignment.init n (fun v -> values.(v))

let solve_with_preprocessing ?options formula =
  match simplify formula with
  | `Unsat -> Outcome.Unsat
  | `Simplified r -> (
    match (Cdcl.solve_response ?options r.formula).Cdcl.outcome with
    | Outcome.Sat a -> Outcome.Sat (reconstruct r a)
    | (Outcome.Unsat | Outcome.Unknown _) as o -> o)
