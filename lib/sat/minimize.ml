type order = Ascending_vars | Fewest_occurrences_first

let recover_dc ?(order = Fewest_occurrences_first) f a =
  let n = Ec_cnf.Formula.num_vars f in
  let nclauses = Ec_cnf.Formula.num_clauses f in
  let sat_count = Array.make nclauses 0 in
  Ec_cnf.Formula.iteri
    (fun i c -> sat_count.(i) <- Ec_cnf.Assignment.clause_sat_count a c)
    f;
  let vars = List.filter (fun v -> v <= n) (Ec_cnf.Assignment.assigned_vars a) in
  let vars =
    match order with
    | Ascending_vars -> vars
    | Fewest_occurrences_first ->
      let occ = Array.make (n + 1) 0 in
      List.iter (fun v -> occ.(v) <- List.length (Ec_cnf.Formula.var_occurrences f v)) vars;
      List.stable_sort (fun v w -> Int.compare occ.(v) occ.(w)) vars
  in
  let released = Array.make (n + 1) false in
  let release v =
    (* Clauses whose satisfaction depends on v's value in [a]: each
       variable is assigned there and visited once. *)
    let l = if Ec_cnf.Assignment.value a v = Ec_cnf.Assignment.True then v else -v in
    let supported = Ec_cnf.Formula.occurrences f l in
    if List.for_all (fun i -> sat_count.(i) >= 2) supported then begin
      List.iter (fun i -> sat_count.(i) <- sat_count.(i) - 1) supported;
      released.(v) <- true
    end
  in
  List.iter release vars;
  let result =
    Ec_cnf.Assignment.init (Ec_cnf.Assignment.num_vars a) (fun v ->
        if v <= n && released.(v) then Ec_cnf.Assignment.Dc else Ec_cnf.Assignment.value a v)
  in
  assert ((not (Ec_cnf.Assignment.satisfies a f)) || Ec_cnf.Assignment.satisfies result f);
  result

let dc_gain f a =
  let before = Ec_cnf.Assignment.dc_count a in
  let after = Ec_cnf.Assignment.dc_count (recover_dc f a) in
  after - before
