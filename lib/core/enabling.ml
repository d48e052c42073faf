type mode = Constraints | Objective of float

type info = {
  support_vars : int;
  score_vars : int;
  extra_constraints : int;
}

let add ?(k = 2) mode enc =
  if k < 1 then invalid_arg "Enabling.add: k must be >= 1";
  let f = Encode.formula enc in
  let model = Encode.model enc in
  let support_vars = ref 0 in
  let rows_before = Ec_ilp.Model.num_constrs model in
  let score_terms = ref [] in
  Ec_cnf.Formula.iteri
    (fun j clause ->
      let lit_terms =
        Ec_cnf.Clause.fold (fun acc l -> (1.0, Encode.lit_var enc l) :: acc) [] clause
      in
      (* One support indicator per literal of the clause. *)
      let z_ids =
        Ec_cnf.Clause.fold
          (fun acc l ->
            (* Z(j,l) stays unnamed: nothing reads a support's name. *)
            let z = Ec_ilp.Model.add_var model in
            incr support_vars;
            (* The support literal must be unselected in the solution. *)
            Ec_ilp.Model.add_constr_terms model
              [ (1.0, z); (1.0, Encode.lit_var enc l) ]
              Ec_ilp.Model.Le 1.0;
            (* Flipping var(l) towards l withdraws ¬l from every other
               clause that currently relies on it. *)
            let not_l = Ec_cnf.Lit.negate l in
            let not_l_id = Encode.lit_var enc not_l in
            Ec_cnf.Formula.iter_occurrences
              (fun d ->
                if d <> j then begin
                  let dc = Ec_cnf.Formula.clause f d in
                  let others =
                    Ec_cnf.Clause.fold
                      (fun acc m ->
                        if Ec_cnf.Lit.equal m not_l then acc
                        else (1.0, Encode.lit_var enc m) :: acc)
                      [] dc
                  in
                  (* Σ others >= z + x_¬l - 1 *)
                  Ec_ilp.Model.add_constr_terms model
                    ((-1.0, z) :: (-1.0, not_l_id) :: others)
                    Ec_ilp.Model.Ge (-1.0)
                end)
              f not_l;
            z :: acc)
          [] clause
      in
      let flex_terms = lit_terms @ List.map (fun z -> (1.0, z)) z_ids in
      match mode with
      | Constraints ->
        (* (7): hard k-flexibility row. *)
        Ec_ilp.Model.add_constr_terms model ~name:(Printf.sprintf "flex%d" j) flex_terms
          Ec_ilp.Model.Ge (float_of_int k)
      | Objective _ ->
        let s = Ec_ilp.Model.add_var model ~name:(Printf.sprintf "S%d" j) in
        score_terms := s :: !score_terms;
        (* S_j <= (Σ flex)/k encoded linearly: k·S_j <= Σ flex - (k-1)·0
           — S_j may be 1 only when the flexibility row reaches k.
           Since the covering row guarantees Σ x >= 1, we use
           k·S_j <= Σ flex - 1·(k-1)·S_j is overcomplex; the direct
           linear form: Σ flex >= k·S_j + 1·(1-S_j), i.e.
           Σ flex - (k-1)·S_j >= 1, which collapses to >= k when S_j=1
           and to the base covering bound otherwise. *)
        Ec_ilp.Model.add_constr_terms model ~name:(Printf.sprintf "score%d" j)
          ((-.float_of_int (k - 1), s) :: flex_terms)
          Ec_ilp.Model.Ge 1.0)
    f;
  (match mode with
  | Constraints -> ()
  | Objective w ->
    (* minimize Σ x - w Σ S. *)
    let n = Encode.num_cnf_vars enc in
    let phase_terms = List.init (2 * n) (fun i -> (1.0, i)) in
    let s_terms = List.map (fun s -> (-.w, s)) !score_terms in
    Ec_ilp.Model.set_objective model Ec_ilp.Model.Minimize
      (Ec_ilp.Linexpr.of_terms (phase_terms @ s_terms)));
  { support_vars = !support_vars;
    score_vars = List.length !score_terms;
    extra_constraints = Ec_ilp.Model.num_constrs model - rows_before }

let clause_flexible ?(k = 2) f a clause =
  let sat = Ec_cnf.Ksat.sat_count a clause in
  sat >= k || (sat >= 1 && sat + List.length (Ec_cnf.Ksat.supporters f a clause) >= k)

let verify ?(k = 2) f a =
  Ec_cnf.Assignment.satisfies a f
  &&
  let ok = ref true in
  Ec_cnf.Formula.iteri (fun _ c -> if not (clause_flexible ~k f a c) then ok := false) f;
  !ok

let flexibility_score f a = Ec_cnf.Ksat.flexibility (Ec_cnf.Ksat.analyze f a)
