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

(* Are the variables from index [i] on strictly ascending, above [v]? *)
let rec ascending lits i v =
  i = Array.length lits || (Lit.var lits.(i) > v && ascending lits (i + 1) (Lit.var lits.(i)))

let of_sorted lits =
  if ascending lits 0 0 then lits
  else invalid_arg "Clause.of_sorted: literals not sorted by variable"

let lits c = c

let size = Array.length

let is_empty c = Array.length c = 0

let mem l c =
  let n = Array.length c in
  let i = ref 0 in
  while !i < n && Array.unsafe_get c !i <> l do
    incr i
  done;
  !i < n

let mem_var v c = Array.exists (fun l -> Lit.var l = v) c

let exists = Array.exists

let for_all = Array.for_all

let fold f acc c = Array.fold_left f acc c

let iter = Array.iter

(* A subsequence of a sorted duplicate-free array is one too. *)
let filter keep c =
  let kept = ref 0 in
  for i = 0 to Array.length c - 1 do
    if keep c.(i) then incr kept
  done;
  let kept = !kept in
  if kept = Array.length c then c
  else begin
    let out = Array.make kept 0 in
    let j = ref 0 in
    Array.iter
      (fun l ->
        if keep l then begin
          out.(!j) <- l;
          incr j
        end)
      c;
    out
  end

(* Sorted by variable: the last literal holds the largest one. *)
let max_var c = if Array.length c = 0 then 0 else Lit.var c.(Array.length c - 1)

let equal (a : t) b = a = b

let compare (a : t) b = Stdlib.compare a b

let to_string c =
  if is_empty c then "()"
  else "(" ^ String.concat " + " (List.map Lit.to_string (Array.to_list c)) ^ ")"

let to_dimacs c =
  String.concat " " (List.map Lit.to_dimacs (Array.to_list c)) ^ " 0"
