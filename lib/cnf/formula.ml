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
   without the [removed] ones (sorted root indices) and with the
   [eliminated] variables (sorted) deleted, and the rest are appended.
   Every root clause is either removed or shared, so root clause [r]
   is clause [r - k], [k] being the number of removed indices below
   [r]. *)
and origin =
  | Standalone
  | Derived of { root : t; shared : int; removed : int array; eliminated : int array }

let of_array ~num_vars clauses =
  if num_vars < 0 then invalid_arg "Formula.create: negative num_vars";
  Array.iter
    (fun c ->
      if Clause.max_var c > num_vars then
        invalid_arg
          (Printf.sprintf "Formula.create: clause %s mentions variable above %d"
             (Clause.to_string c) num_vars))
    clauses;
  { num_vars; clauses; origin = Standalone; index = None; scanned = 0 }

let create ~num_vars clauses = of_array ~num_vars (Array.of_list clauses)

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
   clauses from [shared] on?  The scans, and the walks over [removed],
   are counted; once they would cost more than one index build, [t]
   builds its own index instead, which keeps queries amortized
   O(formula). *)
let via_root t ~shared ~removed =
  match t.index with
  | Some _ -> false
  | None ->
    let scan = Array.length t.clauses - shared + Array.length removed in
    t.scanned + scan <= Array.length t.clauses + t.num_vars
    && begin
      t.scanned <- t.scanned + scan;
      true
    end

(* The clauses [ix] lists for [l] in [t], skipping the [removed] ones
   and shifting later ones down; both runs ascend, so one pointer into
   [removed] follows the slot. *)
let iter_slot f ix t removed l =
  if Lit.var l <= t.num_vars then begin
    let k = slot l in
    let gone = ref 0 in
    for j = ix.start.(k) to ix.start.(k + 1) - 1 do
      let r = ix.clause_of.(j) in
      while !gone < Array.length removed && removed.(!gone) < r do
        incr gone
      done;
      if !gone = Array.length removed || removed.(!gone) <> r then f (r - !gone)
    done
  end

let iter_occurrences f t l =
  match t.origin with
  | Derived { root; shared; removed; eliminated } when via_root t ~shared ~removed ->
    if not (is_eliminated eliminated (Lit.var l)) then iter_slot f (own_index root) root removed l;
    for i = shared to Array.length t.clauses - 1 do
      if Clause.mem l t.clauses.(i) then f i
    done
  | Derived _ | Standalone -> iter_slot f (own_index t) t [||] l

let count_slot ix t l =
  if Lit.var l > t.num_vars then 0
  else
    let k = slot l in
    ix.start.(k + 1) - ix.start.(k)

let count_occurrences t l =
  match t.origin with
  | Derived { root; shared; removed; eliminated } when via_root t ~shared ~removed ->
    let n = ref 0 in
    if not (is_eliminated eliminated (Lit.var l)) then begin
      n := count_slot (own_index root) root l;
      Array.iter (fun r -> if Clause.mem l root.clauses.(r) then decr n) removed
    end;
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
      Derived
        { root = t;
          shared = Array.length t.clauses;
          removed = [||];
          eliminated = Array.of_list eliminated }
  in
  { num_vars; clauses; origin; index = None; scanned = 0 }

let add_clauses t cs =
  let num_vars = List.fold_left (fun m c -> Int.max m (Clause.max_var c)) t.num_vars cs in
  derive t ~num_vars ~clauses:(Array.append t.clauses (Array.of_list cs)) ~eliminated:[]

let add_clause t c = add_clauses t [ c ]

(* The position of the [p]-th clause that survives the removal of the
   ascending positions [gone]. *)
let survivor gone p = Array.fold_left (fun p g -> if g <= p then p + 1 else p) p gone

let merge_sorted a b = Array.of_list (List.merge Int.compare (Array.to_list a) b)

(* Each index counts the clauses the earlier ones left, as in a fold of
   [remove_clause]; [gone] holds their positions in [t], ascending. *)
let remove_clauses t is =
  let n = Array.length t.clauses in
  let gone =
    List.fold_left
      (fun gone i ->
        if i < 0 || i >= n - Array.length gone then invalid_arg "Formula.remove_clause: index";
        merge_sorted gone [ survivor gone i ])
      [||] is
  in
  let j = ref 0 in
  let clauses =
    Array.init (n - Array.length gone) (fun p ->
        while !j < Array.length gone && gone.(!j) <= p + !j do
          incr j
        done;
        t.clauses.(p + !j))
  in
  let origin =
    match (t.index, t.origin) with
    | None, Derived d ->
      (* Positions below [shared] are root clauses; later ones were
         appended and just go. *)
      let from_root = List.filter (fun p -> p < d.shared) (Array.to_list gone) in
      Derived
        { d with
          shared = d.shared - List.length from_root;
          removed = merge_sorted d.removed (List.map (survivor d.removed) from_root) }
    | Some _, _ | None, Standalone ->
      Derived { root = t; shared = n - Array.length gone; removed = gone; eliminated = [||] }
  in
  { num_vars = t.num_vars; clauses; origin; index = None; scanned = 0 }

let remove_clause t i = remove_clauses t [ i ]

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
