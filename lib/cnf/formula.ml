(* Occurrence index in CSR form: literal [l] owns slot [slot l]; its
   clauses are [clause_of.(start.(k)) .. clause_of.(start.(k+1) - 1)],
   ascending. *)
type index = { start : int array; clause_of : int array }

type t = {
  num_vars : int;
  clauses : Clause.t array;
  origin : origin;
  mutable index : index option;  (* own index, built lazily *)
  mutable scanned : int;         (* clauses visited by appended-part scans *)
}

(* A formula either indexes its own clauses, or shares the index of
   the formula it was derived from: clauses [0, shared) are [root]'s
   with the [eliminated] variables (sorted) deleted, and the rest are
   appended. *)
and origin =
  | Standalone
  | Derived of { root : t; shared : int; eliminated : int array }

let validate num_vars clauses =
  if num_vars < 0 then invalid_arg "Formula.create: negative num_vars";
  List.iter
    (fun c ->
      if Clause.max_var c > num_vars then
        invalid_arg
          (Printf.sprintf "Formula.create: clause %s mentions variable above %d"
             (Clause.to_string c) num_vars))
    clauses

let standalone num_vars clauses =
  { num_vars; clauses; origin = Standalone; index = None; scanned = 0 }

let create ~num_vars clauses =
  validate num_vars clauses;
  standalone num_vars (Array.of_list clauses)

let of_lists ~num_vars lit_lists =
  let clauses = List.filter_map Clause.make_opt lit_lists in
  create ~num_vars clauses

let num_vars t = t.num_vars

let num_clauses t = Array.length t.clauses

let clause t i =
  if i < 0 || i >= Array.length t.clauses then invalid_arg "Formula.clause: index";
  t.clauses.(i)

let clauses t = t.clauses

let iteri f t = Array.iteri f t.clauses

let fold f acc t = Array.fold_left f acc t.clauses

let has_empty_clause t = Array.exists Clause.is_empty t.clauses

let slot l = (2 * Lit.var l) + if Lit.is_positive l then 0 else 1

(* Counts per slot, turned into end offsets, then filled from the last
   clause down so each slot ends up ascending and [start.(k)] ends up
   at its beginning. *)
let build_index t =
  let start = Array.make ((2 * t.num_vars) + 3) 0 in
  Array.iter (Clause.iter (fun l -> let k = slot l in start.(k) <- start.(k) + 1)) t.clauses;
  for k = 1 to Array.length start - 1 do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let clause_of = Array.make start.(Array.length start - 1) 0 in
  for i = Array.length t.clauses - 1 downto 0 do
    Clause.iter
      (fun l ->
        let k = slot l in
        let j = start.(k) - 1 in
        start.(k) <- j;
        clause_of.(j) <- i)
      t.clauses.(i)
  done;
  let ix = { start; clause_of } in
  t.index <- Some ix;
  ix

let own_index t = match t.index with Some ix -> ix | None -> build_index t

let rec mem_sorted a v lo hi =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  let w = a.(mid) in
  w = v || if w < v then mem_sorted a v (mid + 1) hi else mem_sorted a v lo mid

let is_eliminated eliminated v = mem_sorted eliminated v 0 (Array.length eliminated)

(* Does a query on [t] go to its root's index plus a scan of the
   clauses from [shared] on?  The scans are counted; once they would
   cost more than one index build, [t] builds its own index instead,
   which keeps queries amortized O(formula). *)
let via_root t ~shared =
  match t.index with
  | Some _ -> false
  | None ->
    let appended = Array.length t.clauses - shared in
    t.scanned + appended <= Array.length t.clauses + t.num_vars
    && begin
      t.scanned <- t.scanned + appended;
      true
    end

let iter_slot f ix t l =
  if Lit.var l <= t.num_vars then begin
    let k = slot l in
    for j = ix.start.(k) to ix.start.(k + 1) - 1 do
      f ix.clause_of.(j)
    done
  end

let iter_occurrences f t l =
  match t.origin with
  | Derived { root; shared; eliminated } when via_root t ~shared ->
    if not (is_eliminated eliminated (Lit.var l)) then iter_slot f (own_index root) root l;
    for i = shared to Array.length t.clauses - 1 do
      if Clause.mem l t.clauses.(i) then f i
    done
  | Derived _ | Standalone -> iter_slot f (own_index t) t l

let count_slot ix t l =
  if Lit.var l > t.num_vars then 0
  else
    let k = slot l in
    ix.start.(k + 1) - ix.start.(k)

let count_occurrences t l =
  match t.origin with
  | Derived { root; shared; eliminated } when via_root t ~shared ->
    let n =
      ref (if is_eliminated eliminated (Lit.var l) then 0 else count_slot (own_index root) root l)
    in
    for i = shared to Array.length t.clauses - 1 do
      if Clause.mem l t.clauses.(i) then incr n
    done;
    !n
  | Derived _ | Standalone -> count_slot (own_index t) t l

let occurrences t l =
  let acc = ref [] in
  iter_occurrences (fun i -> acc := i :: !acc) t l;
  List.rev !acc

(* A clause never holds both phases, so the two lists are disjoint. *)
let var_occurrences t v = List.merge Int.compare (occurrences t v) (occurrences t (-v))

(* A formula derived from [t] shares [t]'s index when [t] has or may
   build one of its own, and otherwise [t]'s root: chains stay one
   level deep. *)
let derive t ~num_vars ~clauses ~eliminated =
  let origin =
    match (t.index, t.origin) with
    | None, Derived d ->
      Derived
        { d with
          eliminated =
            Array.of_list (List.sort_uniq Int.compare (Array.to_list d.eliminated @ eliminated))
        }
    | Some _, _ | None, Standalone ->
      Derived { root = t; shared = Array.length t.clauses; eliminated = Array.of_list eliminated }
  in
  { num_vars; clauses; origin; index = None; scanned = 0 }

let add_clauses t cs =
  let num_vars = List.fold_left (fun m c -> max m (Clause.max_var c)) t.num_vars cs in
  derive t ~num_vars ~clauses:(Array.append t.clauses (Array.of_list cs)) ~eliminated:[]

let add_clause t c = add_clauses t [ c ]

let remove_clause t i =
  let n = Array.length t.clauses in
  if i < 0 || i >= n then invalid_arg "Formula.remove_clause: index";
  standalone t.num_vars
    (Array.init (n - 1) (fun j -> if j < i then t.clauses.(j) else t.clauses.(j + 1)))

let add_var t = derive t ~num_vars:(t.num_vars + 1) ~clauses:t.clauses ~eliminated:[]

(* One copy of the clause array; only the clauses the index lists for
   the variables are rewritten. *)
let eliminate_vars t vs =
  List.iter
    (fun v -> if v < 1 || v > t.num_vars then invalid_arg "Formula.eliminate_var: variable")
    vs;
  let vs = List.sort_uniq Int.compare vs in
  let gone = Array.of_list vs in
  let keep l = not (is_eliminated gone (Lit.var l)) in
  let clauses = Array.copy t.clauses in
  let rewrite i = clauses.(i) <- Clause.filter keep clauses.(i) in
  List.iter
    (fun v ->
      iter_occurrences rewrite t v;
      iter_occurrences rewrite t (-v))
    vs;
  derive t ~num_vars:t.num_vars ~clauses ~eliminated:vs

let eliminate_var t v = eliminate_vars t [ v ]

let vars_used t =
  let seen = Hashtbl.create (t.num_vars + 1) in
  Array.iter (fun c -> Clause.iter (fun l -> Hashtbl.replace seen (Lit.var l) ()) c) t.clauses;
  List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) seen [])

let equal a b =
  a.num_vars = b.num_vars
  && Array.length a.clauses = Array.length b.clauses
  && Array.for_all2 Clause.equal a.clauses b.clauses

let to_string t =
  if Array.length t.clauses = 0 then "(true)"
  else String.concat "" (List.map Clause.to_string (Array.to_list t.clauses))
