(* Simplified formula view: clauses as literal lists, absent clauses
   satisfied.  Assignments accumulate in an association stack. *)
let solve formula =
  let module A = Ec_cnf.Assignment in
  let module C = Ec_cnf.Clause in
  let n = Ec_cnf.Formula.num_vars formula in
  let initial =
    Ec_cnf.Formula.fold (fun acc c -> Array.to_list (C.lits c) :: acc) [] formula
  in
  (* assign l clauses: remove satisfied clauses, shrink others. None on
     empty clause. *)
  let assign l clauses =
    let rec go acc = function
      | [] -> Some acc
      | c :: rest ->
        if List.exists (Ec_cnf.Lit.equal l) c then go acc rest
        else begin
          let c' = List.filter (fun x -> not (Ec_cnf.Lit.equal x (Ec_cnf.Lit.negate l))) c in
          match c' with [] -> None | _ -> go (c' :: acc) rest
        end
    in
    go [] clauses
  in
  let rec unit_literal = function
    | [] -> None
    | [ l ] :: _ -> Some l
    | _ :: rest -> unit_literal rest
  in
  let pure_literal clauses =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun c ->
        List.iter
          (fun l ->
            let v = Ec_cnf.Lit.var l in
            let pos, neg = try Hashtbl.find tbl v with Not_found -> (false, false) in
            let entry = if Ec_cnf.Lit.is_positive l then (true, neg) else (pos, true) in
            Hashtbl.replace tbl v entry)
          c)
      clauses;
    Hashtbl.fold
      (fun v (pos, neg) acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if pos && not neg then Some (Ec_cnf.Lit.make v true)
          else if neg && not pos then Some (Ec_cnf.Lit.make v false)
          else None)
      tbl None
  in
  let rec search clauses trail =
    match clauses with
    | [] -> Some trail
    | _ -> (
      match unit_literal clauses with
      | Some l -> (
        match assign l clauses with
        | None -> None
        | Some clauses' -> search clauses' (l :: trail))
      | None -> (
        match pure_literal clauses with
        | Some l -> (
          match assign l clauses with
          | None -> None (* cannot happen for a pure literal *)
          | Some clauses' -> search clauses' (l :: trail))
        | None ->
          (* Branch on the first literal of the first clause. *)
          let l =
            match clauses with
            | (l :: _) :: _ -> l
            | [] :: _ | [] -> assert false
          in
          let try_lit lit =
            match assign lit clauses with
            | None -> None
            | Some clauses' -> search clauses' (lit :: trail)
          in
          (match try_lit l with
          | Some _ as r -> r
          | None -> try_lit (Ec_cnf.Lit.negate l))))
  in
  if Ec_cnf.Formula.has_empty_clause formula then Ec_sat.Outcome.Unsat
  else
    match search initial [] with
    | Some trail ->
      (* an assigned literal leaves every clause, so each variable is
         on the trail at most once *)
      Ec_sat.Outcome.Sat
        (A.of_list n (List.map (fun l -> (Ec_cnf.Lit.var l, Ec_cnf.Lit.is_positive l)) trail))
    | None -> Ec_sat.Outcome.Unsat
