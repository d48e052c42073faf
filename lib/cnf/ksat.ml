let sat_count = Assignment.clause_sat_count

(* Flipping v from b to ~b falsifies exactly the literals of v with
   polarity b; clauses containing such a literal survive iff another of
   their literals is true. *)
let flip_breaks f a v =
  match Assignment.value a v with
  | Assignment.Dc -> []
  | Assignment.True | Assignment.False ->
    let true_lit = if Assignment.value a v = Assignment.True then v else -v in
    let endangered = Formula.occurrences f true_lit in
    List.filter
      (fun i ->
        let c = Formula.clause f i in
        not (Clause.exists (fun l -> Lit.var l <> v && Assignment.lit_true a l) c))
      endangered

let flip_safe f a v = flip_breaks f a v = []

let supporters f a c =
  Clause.fold
    (fun acc l ->
      let v = Lit.var l in
      (* The flip must make l true: l not already satisfied (false or
         DC — assigning a DC variable is a free support, it can break
         nothing), and flipping v must break nothing else. *)
      if (not (Assignment.lit_true a l)) && flip_safe f a v then v :: acc else acc)
    [] c
  |> List.rev

type report = {
  clauses_total : int;
  clauses_2sat : int;
  clauses_supported : int;
  clauses_fragile : int;
  clauses_unsat : int;
}

let analyze f a =
  let r =
    ref { clauses_total = 0; clauses_2sat = 0; clauses_supported = 0;
          clauses_fragile = 0; clauses_unsat = 0 }
  in
  Formula.iteri
    (fun _ c ->
      let k = sat_count a c in
      let cur = !r in
      let cur = { cur with clauses_total = cur.clauses_total + 1 } in
      r :=
        if k >= 2 then { cur with clauses_2sat = cur.clauses_2sat + 1 }
        else if k = 0 then { cur with clauses_unsat = cur.clauses_unsat + 1 }
        else if supporters f a c <> [] then
          { cur with clauses_supported = cur.clauses_supported + 1 }
        else { cur with clauses_fragile = cur.clauses_fragile + 1 })
    f;
  !r

let enabled f a =
  let r = analyze f a in
  r.clauses_fragile = 0 && r.clauses_unsat = 0

let flexibility r =
  if r.clauses_total = 0 then 1.0
  else
    float_of_int (r.clauses_2sat + r.clauses_supported)
    /. float_of_int r.clauses_total

let tolerates_elimination f a v =
  let f' = Formula.eliminate_var f v in
  let broken = Assignment.unsatisfied_clauses a f' in
  match broken with
  | [] -> true
  | _ ->
    (* A single repair flip of one other variable must fix every broken
       clause at once and break nothing in f'. *)
    let candidate_fixes =
      List.fold_left
        (fun acc i ->
          let fixers =
            Clause.fold
              (fun vs l ->
                let w = Lit.var l in
                if w <> v && Assignment.lit_false a l then w :: vs else vs)
              [] (Formula.clause f' i)
          in
          match acc with
          | None -> Some fixers
          | Some prev -> Some (List.filter (fun w -> List.mem w fixers) prev))
        None broken
    in
    (match candidate_fixes with
    | None | Some [] -> false
    | Some ws -> List.exists (fun w -> flip_safe f' a w) ws)
