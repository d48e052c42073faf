type result =
  | Optimal of { point : float array; objective : float }
  | Infeasible
  | Unbounded
  | Interrupted of Ec_util.Budget.reason

exception Cut_exn of Ec_util.Budget.reason

let eps_pivot = 1e-9
let eps_feas = 1e-7

(* Domain-local so solves on concurrent pool domains (tables, serve)
   don't corrupt each other's pivot deltas; callers always measure a
   before/after difference on one domain, which stays exact. *)
let total_iterations = Domain.DLS.new_key (fun () -> ref 0)

let counter () = Domain.DLS.get total_iterations

let iterations_performed () = !(counter ())

(* Tableau layout: [rows] is an m-array of (ncols+1)-arrays, the last
   entry being the rhs.  [obj] is the objective row (reduced costs),
   with obj.(ncols) = current objective value (to be maximized).
   [basis.(i)] is the column basic in row i. *)
type tableau = {
  rows : float array array;
  obj : float array;
  basis : int array;
  ncols : int;
}

let pivot t ~row ~col =
  incr (counter ());
  let prow = t.rows.(row) in
  let p = prow.(col) in
  for j = 0 to t.ncols do
    prow.(j) <- prow.(j) /. p
  done;
  let eliminate r =
    let f = r.(col) in
    if abs_float f > 0.0 then
      for j = 0 to t.ncols do
        r.(j) <- r.(j) -. (f *. prow.(j))
      done
  in
  Array.iteri (fun i r -> if i <> row then eliminate r) t.rows;
  eliminate t.obj;
  t.basis.(row) <- col

(* Entering column: Dantzig (most positive reduced cost) or Bland
   (lowest index with positive reduced cost).  The objective row stores
   coefficients such that increasing a column with positive obj entry
   improves the (max) objective. *)
let entering t ~bland ~allowed =
  let best = ref (-1) in
  let best_val = ref eps_pivot in
  for j = 0 to t.ncols - 1 do
    if allowed j && t.obj.(j) > !best_val then begin
      if bland then begin
        if !best = -1 then begin best := j; best_val := eps_pivot end
      end else begin
        best := j;
        best_val := t.obj.(j)
      end
    end
  done;
  !best

(* Leaving row by minimum ratio test; Bland tie-break on basis index. *)
let leaving t col =
  let m = Array.length t.rows in
  let best = ref (-1) in
  let best_ratio = ref infinity in
  for i = 0 to m - 1 do
    let aij = t.rows.(i).(col) in
    if aij > eps_pivot then begin
      let ratio = t.rows.(i).(t.ncols) /. aij in
      if
        ratio < !best_ratio -. eps_pivot
        || (abs_float (ratio -. !best_ratio) <= eps_pivot
            && !best >= 0
            && t.basis.(i) < t.basis.(!best))
      then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  !best

type phase_outcome = Opt | Unbound

type options = {
  bland_factor : int;
  budget : Ec_util.Budget.t;
}

let default_options = { bland_factor = 50; budget = Ec_util.Budget.unlimited }

(* Tunable surface for the unified config plane.  Budget stays outside
   the spec (per-solve runtime state). *)
let config =
  Ec_util.Config.make ~engine:"simplex"
    ~doc:"primal simplex over a dense tableau (LP engine under bnb)"
    ~defaults:default_options
    [ Ec_util.Config.int "bland_factor"
        ~doc:"Dantzig-to-Bland switch after factor*(rows+cols+10) pivots"
        ~get:(fun o -> o.bland_factor)
        ~set:(fun v o -> { o with bland_factor = v }) ]

(* [check] is consulted before each pivot; a budget verdict aborts the
   phase via {!Cut_exn}. *)
let optimize t ~bland_factor ~allowed ~check =
  let bland_threshold = bland_factor * (Array.length t.rows + t.ncols + 10) in
  let rec loop iter =
    let bland = iter > bland_threshold in
    let col = entering t ~bland ~allowed in
    if col = -1 then Opt
    else
      let row = leaving t col in
      if row = -1 then Unbound
      else begin
        (match check () with Some r -> raise (Cut_exn r) | None -> ());
        pivot t ~row ~col;
        loop (iter + 1)
      end
  in
  loop 0

let solve_canonical ?(options = default_options) ?budget ~a ~b ~c () =
  Ec_util.Fault.maybe_raise "simplex.solve";
  (* A direct [?budget] intersects with the options' budget for this
     call only — same convention as the incremental SAT session. *)
  let budget =
    match budget with
    | None -> options.budget
    | Some b -> Ec_util.Budget.combine options.budget b
  in
  let budget = Ec_util.Fault.burn "simplex.solve" budget in
  let bland_factor = options.bland_factor in
  let gauge = Ec_util.Budget.start budget in
  let pivots = counter () in
  let pivots0 = !pivots in
  let check () =
    Ec_util.Budget.check gauge ~iterations:(!pivots - pivots0)
  in
  try
  let m = Array.length a in
  let n = Array.length c in
  if Array.length b <> m then invalid_arg "Simplex: b length mismatch";
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Simplex: row length mismatch") a;
  (* Columns: n structural, m slack, then artificials for rows whose
     rhs is negative (those rows are negated first). *)
  let neg_rows = ref [] in
  for i = 0 to m - 1 do
    if b.(i) < 0.0 then neg_rows := i :: !neg_rows
  done;
  let nart = List.length !neg_rows in
  let ncols = n + m + nart in
  let rows = Array.init m (fun _ -> Array.make (ncols + 1) 0.0) in
  let basis = Array.make m (-1) in
  let art_of_row = Hashtbl.create 8 in
  let next_art = ref 0 in
  for i = 0 to m - 1 do
    let flip = b.(i) < 0.0 in
    let s = if flip then -1.0 else 1.0 in
    for j = 0 to n - 1 do
      rows.(i).(j) <- s *. a.(i).(j)
    done;
    rows.(i).(n + i) <- s (* slack *);
    rows.(i).(ncols) <- s *. b.(i);
    if flip then begin
      let aj = n + m + !next_art in
      incr next_art;
      Hashtbl.replace art_of_row i aj;
      rows.(i).(aj) <- 1.0;
      basis.(i) <- aj
    end else basis.(i) <- n + i
  done;
  let t = { rows; obj = Array.make (ncols + 1) 0.0; basis; ncols } in
  (* Phase I: maximize -(sum of artificials).  Express in terms of the
     nonbasic columns by adding each artificial row to the objective. *)
  let feasible =
    if nart = 0 then true
    else begin
      Hashtbl.iter
        (fun i _aj ->
          for j = 0 to ncols do
            t.obj.(j) <- t.obj.(j) +. t.rows.(i).(j)
          done)
        art_of_row;
      (* Artificial columns themselves must not re-enter: obj entry for
         them is 1 + ... ; mark them disallowed instead. *)
      let is_art j = j >= n + m in
      (match optimize t ~bland_factor ~allowed:(fun j -> not (is_art j)) ~check with
      | Unbound -> (* Phase I is bounded by construction *) assert false
      | Opt -> ());
      (* Residual infeasibility = value still carried by basic
         artificials; read it off the basis directly, which is immune
         to the objective row's sign convention. *)
      let art_residual = ref 0.0 in
      Array.iteri
        (fun i bi -> if is_art bi then art_residual := !art_residual +. t.rows.(i).(ncols))
        t.basis;
      if !art_residual > eps_feas then false
      else begin
        (* Pivot any artificial still basic (at zero) out if possible. *)
        Array.iteri
          (fun i bi ->
            if is_art bi then begin
              let col = ref (-1) in
              for j = 0 to n + m - 1 do
                if !col = -1 && abs_float t.rows.(i).(j) > eps_pivot then col := j
              done;
              if !col >= 0 then pivot t ~row:i ~col:!col
              (* else: the row is all-zero — redundant constraint; the
                 artificial stays basic at value 0, harmless since its
                 column is never allowed to move. *)
            end)
          t.basis;
        true
      end
    end
  in
  if not feasible then Infeasible
  else begin
    (* Phase II: install the real objective, reduced by the basic rows. *)
    Array.fill t.obj 0 (ncols + 1) 0.0;
    for j = 0 to n - 1 do
      t.obj.(j) <- c.(j)
    done;
    Array.iteri
      (fun i bi ->
        if bi < n && abs_float t.obj.(bi) > 0.0 then begin
          let f = t.obj.(bi) in
          for j = 0 to ncols do
            t.obj.(j) <- t.obj.(j) -. (f *. t.rows.(i).(j))
          done;
          (* Objective value accumulates in the rhs cell with opposite
             sign convention; fix at extraction. *)
          ()
        end)
      t.basis;
    let is_art j = j >= n + m in
    match optimize t ~bland_factor ~allowed:(fun j -> not (is_art j)) ~check with
    | Unbound -> Unbounded
    | Opt ->
      let point = Array.make n 0.0 in
      Array.iteri
        (fun i bi -> if bi < n then point.(bi) <- t.rows.(i).(ncols))
        t.basis;
      (* Clamp tiny negatives from roundoff. *)
      Array.iteri (fun j x -> if x < 0.0 && x > -.eps_feas then point.(j) <- 0.0) point;
      let objective = Array.to_list (Array.mapi (fun j cj -> cj *. point.(j)) c) |> List.fold_left ( +. ) 0.0 in
      Optimal { point; objective }
  end
  with Cut_exn r -> Interrupted r

let solve_model ?options ?budget model =
  let n = Ec_ilp.Model.num_vars model in
  (* Gather upper bounds as extra rows; lower bounds must be 0. *)
  let extra_rows = ref [] in
  for i = 0 to n - 1 do
    match Ec_ilp.Model.var_kind model i with
    | Ec_ilp.Model.Binary -> extra_rows := (i, 1.0) :: !extra_rows
    | Ec_ilp.Model.Continuous (lo, hi) ->
      if lo <> 0.0 then invalid_arg "Simplex.solve_model: nonzero lower bound";
      if hi < infinity then extra_rows := (i, hi) :: !extra_rows
  done;
  let constrs = Ec_ilp.Model.constrs model in
  let row_of_expr expr =
    let row = Array.make n 0.0 in
    List.iter (fun (cf, v) -> row.(v) <- row.(v) +. cf) (Ec_ilp.Linexpr.terms expr);
    row
  in
  let rows = ref [] in
  let add_le row rhs = rows := (row, rhs) :: !rows in
  Array.iter
    (fun (c : Ec_ilp.Model.constr) ->
      let row = row_of_expr c.expr in
      let rhs = c.rhs -. Ec_ilp.Linexpr.const_part c.expr in
      match c.relation with
      | Ec_ilp.Model.Le -> add_le row rhs
      | Ec_ilp.Model.Ge -> add_le (Array.map (fun x -> -.x) row) (-.rhs)
      | Ec_ilp.Model.Eq ->
        add_le (Array.copy row) rhs;
        add_le (Array.map (fun x -> -.x) row) (-.rhs))
    constrs;
  List.iter
    (fun (i, hi) ->
      let row = Array.make n 0.0 in
      row.(i) <- 1.0;
      add_le row hi)
    !extra_rows;
  let rows = List.rev !rows in
  let a = Array.of_list (List.map fst rows) in
  let b = Array.of_list (List.map snd rows) in
  let sense, obj_expr = Ec_ilp.Model.objective model in
  let c = Array.make n 0.0 in
  List.iter (fun (cf, v) -> c.(v) <- c.(v) +. cf) (Ec_ilp.Linexpr.terms obj_expr);
  let flip = match sense with Ec_ilp.Model.Minimize -> -1.0 | Ec_ilp.Model.Maximize -> 1.0 in
  let c_solve = Array.map (fun x -> flip *. x) c in
  match solve_canonical ?options ?budget ~a ~b ~c:c_solve () with
  | Infeasible -> Ec_ilp.Solution.infeasible
  | Unbounded -> Ec_ilp.Solution.unbounded
  | Interrupted _ -> Ec_ilp.Solution.unknown
  | Optimal { point; objective } ->
    let objective = (flip *. objective) +. Ec_ilp.Linexpr.const_part obj_expr in
    { Ec_ilp.Solution.status = Ec_ilp.Solution.Optimal; values = point; objective }
