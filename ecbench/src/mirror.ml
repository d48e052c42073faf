(* The benchmark's own copy of a formula under change: its clauses as
   DIMACS literal arrays.  Answers are checked against it rather than
   against Ec_cnf.Change / Ec_core.Certify, so the code that produced
   an answer never checks it. *)

type t = int array list

let of_formula f =
  Array.to_list
    (Array.map (fun c -> Array.copy (Ec_cnf.Clause.lits c)) (Ec_cnf.Formula.clauses f))

(* A new variable constrains nothing, so [Add_var] leaves the clauses
   as they are. *)
let apply (t : t) = function
  | Ec_cnf.Change.Add_clause c -> t @ [ Array.copy (Ec_cnf.Clause.lits c) ]
  | Ec_cnf.Change.Remove_clause i -> List.filteri (fun j _ -> j <> i) t
  | Ec_cnf.Change.Add_var -> t
  | Ec_cnf.Change.Eliminate_var v ->
    List.map (fun c -> Array.of_list (List.filter (fun l -> abs l <> v) (Array.to_list c))) t

let apply_script t script = List.fold_left apply t script

(* A model as a partial valuation: [None] is a don't-care. *)
type valuation = int -> bool option

let lit_true (value : valuation) l =
  match value (abs l) with Some b -> b = (l > 0) | None -> false

let satisfied value (t : t) = List.for_all (Array.exists (lit_true value)) t

let of_assignment a v =
  if v < 1 || v > Ec_cnf.Assignment.num_vars a then None
  else
    match Ec_cnf.Assignment.value a v with
    | Ec_cnf.Assignment.True -> Some true
    | Ec_cnf.Assignment.False -> Some false
    | Ec_cnf.Assignment.Dc -> None

(* The serve daemon renders a model as the signed literals of its
   assigned variables. *)
let of_literals lits =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun l -> Hashtbl.replace tbl (abs l) (l > 0)) lits;
  Hashtbl.find_opt tbl
