type t = Lit.t array

exception Tautology

let make lits =
  let sorted = List.sort_uniq Lit.compare lits in
  let rec check = function
    | a :: (b :: _ as rest) ->
      if Lit.var a = Lit.var b then raise Tautology;
      check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  Array.of_list sorted

let make_opt lits = match make lits with c -> Some c | exception Tautology -> None

let lits c = c

let size = Array.length

let is_empty c = Array.length c = 0

let mem l c = Array.exists (Lit.equal l) c

let mem_var v c = Array.exists (fun l -> Lit.var l = v) c

let exists = Array.exists

let for_all = Array.for_all

let fold f acc c = Array.fold_left f acc c

let iter = Array.iter

let remove_var v c =
  if mem_var v c then Array.of_list (List.filter (fun l -> Lit.var l <> v) (Array.to_list c))
  else c

let max_var c = Array.fold_left (fun m l -> max m (Lit.var l)) 0 c

let equal (a : t) b = a = b

let compare (a : t) b = Stdlib.compare a b

let to_string c =
  if is_empty c then "()"
  else "(" ^ String.concat " + " (List.map Lit.to_string (Array.to_list c)) ^ ")"

let to_dimacs c =
  String.concat " " (List.map Lit.to_dimacs (Array.to_list c)) ^ " 0"
