type sense = Minimize | Maximize

type relation = Le | Ge | Eq

type t = {
  mutable names : string array;
  mutable nvars : int;
  (* Constraints in CSR form: constraint [i]'s terms are positions
     [start.(i)] to [start.(i + 1) - 1] of [vars] and [coeffs], so
     [start.(nconstrs)] is the first free position. *)
  mutable start : int array;     (* row capacity + 1 *)
  mutable vars : int array;
  mutable coeffs : float array;
  mutable relations : relation array;
  mutable rhs : float array;
  mutable constants : float array;
  mutable cnames : string option array;
  mutable nconstrs : int;
  mutable obj : (sense * Linexpr.t) option;
  by_name : (string, int) Hashtbl.t;
}

let create () =
  { names = Array.make 16 "";
    nvars = 0;
    start = Array.make 17 0;
    vars = Array.make 64 0;
    coeffs = Array.make 64 0.0;
    relations = Array.make 16 Le;
    rhs = Array.make 16 0.0;
    constants = Array.make 16 0.0;
    cnames = Array.make 16 None;
    nconstrs = 0;
    obj = None;
    by_name = Hashtbl.create 64 }

(* [a] doubled, its first [n] entries kept. *)
let doubled a n fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 n;
  b

let add_var ?name t =
  if t.nvars = Array.length t.names then t.names <- doubled t.names t.nvars "";
  let id = t.nvars in
  (match name with
  | None -> t.names.(id) <- ""
  | Some n ->
    t.names.(id) <- n;
    Hashtbl.replace t.by_name n id);
  t.nvars <- id + 1;
  id

let num_vars t = t.nvars

let var_out_of_range t i =
  invalid_arg (Printf.sprintf "Model: variable id %d out of range [0,%d)" i t.nvars)

let check_var t i = if i < 0 || i >= t.nvars then var_out_of_range t i

let var_name t i =
  check_var t i;
  if t.names.(i) = "" then Printf.sprintf "x%d" i else t.names.(i)

let find_var t name = Hashtbl.find t.by_name name

let check_expr t expr = List.iter (check_var t) (Linexpr.vars expr)

let grow_constrs t =
  let n = t.nconstrs in
  let start = Array.make ((2 * n) + 1) 0 in
  Array.blit t.start 0 start 0 (n + 1);
  t.start <- start;
  t.relations <- doubled t.relations n Le;
  t.rhs <- doubled t.rhs n 0.0;
  t.constants <- doubled t.constants n 0.0;
  t.cnames <- doubled t.cnames n None

let reserve_terms t needed =
  if needed > Array.length t.vars then begin
    let cap = max needed (2 * Array.length t.vars) in
    let used = t.start.(t.nconstrs) in
    let vars = Array.make cap 0 and coeffs = Array.make cap 0.0 in
    Array.blit t.vars 0 vars 0 used;
    Array.blit t.coeffs 0 coeffs 0 used;
    t.vars <- vars;
    t.coeffs <- coeffs
  end

(* Stable sort of the terms at [lo, hi) by variable: insertion sort
   for the short rows every encoding posts, a merge sort beyond. *)
let sort_terms t lo hi =
  if hi - lo <= 32 then
    for i = lo + 1 to hi - 1 do
      let v = t.vars.(i) and c = t.coeffs.(i) in
      let j = ref (i - 1) in
      while !j >= lo && t.vars.(!j) > v do
        t.vars.(!j + 1) <- t.vars.(!j);
        t.coeffs.(!j + 1) <- t.coeffs.(!j);
        decr j
      done;
      t.vars.(!j + 1) <- v;
      t.coeffs.(!j + 1) <- c
    done
  else begin
    let perm = Array.init (hi - lo) (fun k -> lo + k) in
    Array.stable_sort (fun a b -> Int.compare t.vars.(a) t.vars.(b)) perm;
    let vars = Array.map (fun p -> t.vars.(p)) perm in
    let coeffs = Array.map (fun p -> t.coeffs.(p)) perm in
    Array.blit vars 0 t.vars lo (hi - lo);
    Array.blit coeffs 0 t.coeffs lo (hi - lo)
  end

(* Sum each variable's run left to right and drop zero sums, as
   [Linexpr.of_terms] does; returns the new end. *)
let merge_terms t lo hi =
  let w = ref lo and p = ref lo in
  while !p < hi do
    let v = t.vars.(!p) in
    let c = ref t.coeffs.(!p) in
    incr p;
    while !p < hi && t.vars.(!p) = v do
      c := !c +. t.coeffs.(!p);
      incr p
    done;
    if !c <> 0.0 then begin
      t.vars.(!w) <- v;
      t.coeffs.(!w) <- !c;
      incr w
    end
  done;
  !w

let add_constr_terms t ?name ?(constant = 0.0) terms relation rhs =
  let i = t.nconstrs in
  if i + 1 = Array.length t.start then grow_constrs t;
  let lo = t.start.(i) in
  reserve_terms t (lo + List.length terms);
  let hi =
    List.fold_left
      (fun p (c, x) ->
        if x < 0 then invalid_arg "Linexpr.of_terms: negative id";
        t.vars.(p) <- x;
        t.coeffs.(p) <- c;
        p + 1)
      lo terms
  in
  sort_terms t lo hi;
  let hi = merge_terms t lo hi in
  for p = lo to hi - 1 do
    if t.vars.(p) >= t.nvars then var_out_of_range t t.vars.(p)
  done;
  t.start.(i + 1) <- hi;
  t.relations.(i) <- relation;
  t.rhs.(i) <- rhs;
  t.constants.(i) <- constant;
  t.cnames.(i) <- name;
  t.nconstrs <- i + 1

let add_constr t ?name expr relation rhs =
  add_constr_terms t ?name ~constant:(Linexpr.const_part expr) (Linexpr.terms expr) relation rhs

let num_constrs t = t.nconstrs

let check_constr t i =
  if i < 0 || i >= t.nconstrs then
    invalid_arg (Printf.sprintf "Model: constraint id %d out of range [0,%d)" i t.nconstrs)

let constr_name t i =
  check_constr t i;
  match t.cnames.(i) with Some n -> n | None -> Printf.sprintf "c%d" i

let constr_relation t i =
  check_constr t i;
  t.relations.(i)

let constr_rhs t i =
  check_constr t i;
  t.rhs.(i)

let constr_constant t i =
  check_constr t i;
  t.constants.(i)

let constr_terms t i =
  check_constr t i;
  List.init (t.start.(i + 1) - t.start.(i)) (fun k ->
      let p = t.start.(i) + k in
      (t.coeffs.(p), t.vars.(p)))

let term_start t = t.start

let term_vars t = t.vars

let term_coeffs t = t.coeffs

let set_objective t sense expr =
  check_expr t expr;
  t.obj <- Some (sense, expr)

let objective t = match t.obj with Some o -> o | None -> (Minimize, Linexpr.zero)

let relation_to_string = function Le -> "<=" | Ge -> ">=" | Eq -> "="

let to_string t =
  let buf = Buffer.create 512 in
  let name i = var_name t i in
  let sense, obj = objective t in
  Buffer.add_string buf
    (Printf.sprintf "%s: %s\nsubject to:\n"
       (match sense with Minimize -> "minimize" | Maximize -> "maximize")
       (Linexpr.to_string ~name obj));
  for i = 0 to t.nconstrs - 1 do
    let expr = Linexpr.of_terms ~constant:t.constants.(i) (constr_terms t i) in
    Buffer.add_string buf
      (Printf.sprintf "  %s: %s %s %g\n" (constr_name t i)
         (Linexpr.to_string ~name expr)
         (relation_to_string t.relations.(i)) t.rhs.(i))
  done;
  Buffer.add_string buf "variables:\n";
  for i = 0 to t.nvars - 1 do
    Printf.bprintf buf "  %s: binary\n" (name i)
  done;
  Buffer.contents buf
