type value = True | False | Dc

type t = value array (* index 0 unused; 1..n are variables *)

let value_to_string = function True -> "1" | False -> "0" | Dc -> "*"

let make n =
  if n < 0 then invalid_arg "Assignment.make";
  Array.make (n + 1) Dc

let init n f =
  if n < 0 then invalid_arg "Assignment.init";
  Array.init (n + 1) (fun v -> if v = 0 then Dc else f v)

let num_vars t = Array.length t - 1

let check t v =
  if v < 1 || v >= Array.length t then
    invalid_arg (Printf.sprintf "Assignment: variable %d out of range [1,%d]" v (num_vars t))

let value t v =
  check t v;
  t.(v)

let set t v x =
  check t v;
  let t' = Array.copy t in
  t'.(v) <- x;
  t'

let of_list n bindings =
  let t = make n in
  List.iter
    (fun (v, b) ->
      check t v;
      let x = if b then True else False in
      (match t.(v) with
      | Dc -> ()
      | old when old = x -> ()
      | _ -> invalid_arg (Printf.sprintf "Assignment.of_list: conflicting values for v%d" v));
      t.(v) <- x)
    bindings;
  t

let of_bool_list bools =
  let n = List.length bools in
  let t = make n in
  List.iteri (fun i b -> t.(i + 1) <- (if b then True else False)) bools;
  t

let lit_true t l =
  match value t (Lit.var l) with
  | True -> Lit.is_positive l
  | False -> not (Lit.is_positive l)
  | Dc -> false

let lit_false t l =
  match value t (Lit.var l) with
  | True -> not (Lit.is_positive l)
  | False -> Lit.is_positive l
  | Dc -> false

let clause_sat_count t c = Clause.fold (fun n l -> if lit_true t l then n + 1 else n) 0 c

let satisfies_clause t c = Clause.exists (lit_true t) c

let satisfies t f =
  let sat = ref true in
  Formula.iteri (fun _ c -> if not (satisfies_clause t c) then sat := false) f;
  !sat

let unsatisfied_clauses t f =
  let acc = ref [] in
  Formula.iteri (fun i c -> if not (satisfies_clause t c) then acc := i :: !acc) f;
  List.rev !acc

let assigned_vars t =
  let acc = ref [] in
  for v = num_vars t downto 1 do
    if t.(v) <> Dc then acc := v :: !acc
  done;
  !acc

let dc_count t =
  let n = ref 0 in
  for v = 1 to num_vars t do
    if t.(v) = Dc then incr n
  done;
  !n

let preserved_count ~old_assignment t =
  let n = min (num_vars old_assignment) (num_vars t) in
  let count = ref 0 in
  for v = 1 to n do
    if old_assignment.(v) = t.(v) then incr count
  done;
  !count

let preserved_fraction ~old_assignment t =
  let n = min (num_vars old_assignment) (num_vars t) in
  if n = 0 then 1.0
  else float_of_int (preserved_count ~old_assignment t) /. float_of_int n

let extend t n =
  let cur = num_vars t in
  if n < cur then invalid_arg "Assignment.extend: shrinking";
  if n = cur then t
  else begin
    let t' = make n in
    Array.blit t 1 t' 1 cur;
    t'
  end

let merge ~base ~overlay =
  if num_vars base <> num_vars overlay then invalid_arg "Assignment.merge: range mismatch";
  Array.mapi
    (fun v x -> if v = 0 then x else match overlay.(v) with Dc -> base.(v) | ov -> ov)
    base

let merge_on ~vars ~base ~overlay =
  if num_vars base <> num_vars overlay then invalid_arg "Assignment.merge_on: range mismatch";
  let t = Array.copy base in
  List.iter
    (fun v ->
      check t v;
      t.(v) <- overlay.(v))
    vars;
  t

let to_list t = List.map (fun v -> (v, t.(v))) (List.init (num_vars t) (fun i -> i + 1))

let equal (a : t) b = a = b

let to_string t =
  let binding v = Printf.sprintf "v%d=%s" v (value_to_string t.(v)) in
  "{" ^ String.concat ", " (List.map binding (List.init (num_vars t) (fun i -> i + 1))) ^ "}"
