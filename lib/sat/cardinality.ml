type encoded = {
  clauses : Ec_cnf.Clause.t list;
  next_var : int;
}

let clause lits = Ec_cnf.Clause.make lits

(* Sequential counter: registers s(i,j) = "at least j of the first i
   literals are true", i in [1, n-1], j in [1, k]. *)
let at_most ~next_var lits k =
  if k < 0 then invalid_arg "Cardinality.at_most: negative bound";
  List.iter
    (fun l ->
      if Ec_cnf.Lit.var l >= next_var then
        invalid_arg "Cardinality.at_most: next_var collides with input literals")
    lits;
  let n = List.length lits in
  if n <= k then { clauses = []; next_var }
  else if k = 0 then
    { clauses = List.map (fun l -> clause [ Ec_cnf.Lit.negate l ]) lits; next_var }
  else begin
    let x = Array.of_list lits in
    (* s i j with i in [0, n-2], j in [0, k-1] laid out row-major. *)
    let s i j = Ec_cnf.Lit.make (next_var + (i * k) + j) true in
    let cls = ref [] in
    let add lits = cls := clause lits :: !cls in
    let nx l = Ec_cnf.Lit.negate l in
    add [ nx x.(0); s 0 0 ];
    for j = 1 to k - 1 do
      add [ nx (s 0 j) ]
    done;
    for i = 1 to n - 2 do
      add [ nx x.(i); s i 0 ];
      add [ nx (s (i - 1) 0); s i 0 ];
      for j = 1 to k - 1 do
        add [ nx x.(i); nx (s (i - 1) (j - 1)); s i j ];
        add [ nx (s (i - 1) j); s i j ]
      done;
      add [ nx x.(i); nx (s (i - 1) (k - 1)) ]
    done;
    add [ nx x.(n - 1); nx (s (n - 2) (k - 1)) ];
    { clauses = List.rev !cls; next_var = next_var + ((n - 1) * k) }
  end

(* ---- reusable counter (encode once, tighten per probe) ----------- *)

type reusable = {
  r_clauses : Ec_cnf.Clause.t list;
  r_next_var : int;
  r_outputs : Ec_cnf.Lit.t array;
}

(* Like [at_most], but the counter is built once up to capacity [cap]
   and exposes the last row as outputs: [r_outputs.(j)] is complete
   under unit propagation for "at least j+1 inputs are true".  A caller
   probing several bounds posts these clauses a single time and selects
   each bound with one literal ({!bound_lit}) — as a unit clause or,
   in an incremental session, as an assumption, so probes at different
   bounds reuse the encoding and everything learnt from it.  Only the
   upward implication direction is emitted (see {!Totalizer}'s
   incremental form for the argument); rows are full, without
   [at_most]'s terminal-clause shortcut, so every bound in [0, cap)
   stays selectable. *)
let counter ~next_var lits cap =
  if cap < 0 then invalid_arg "Cardinality.counter: negative capacity";
  List.iter
    (fun l ->
      if Ec_cnf.Lit.var l >= next_var then
        invalid_arg "Cardinality.counter: next_var collides with input literals")
    lits;
  let n = List.length lits in
  if n = 0 || cap = 0 then
    { r_clauses = []; r_next_var = next_var; r_outputs = [||] }
  else begin
    let x = Array.of_list lits in
    (* s i j, i in [0, n-1], j in [0, cap-1], row-major. *)
    let s i j = Ec_cnf.Lit.make (next_var + (i * cap) + j) true in
    let cls = ref [] in
    let add lits = cls := clause lits :: !cls in
    let nx l = Ec_cnf.Lit.negate l in
    add [ nx x.(0); s 0 0 ];
    for i = 1 to n - 1 do
      add [ nx x.(i); s i 0 ];
      add [ nx (s (i - 1) 0); s i 0 ];
      for j = 1 to cap - 1 do
        add [ nx x.(i); nx (s (i - 1) (j - 1)); s i j ];
        add [ nx (s (i - 1) j); s i j ]
      done
    done;
    { r_clauses = List.rev !cls;
      r_next_var = next_var + (n * cap);
      r_outputs = Array.init cap (fun j -> s (n - 1) j) }
  end

let capacity r = Array.length r.r_outputs

let bound_lit r k =
  if k < 0 || k >= Array.length r.r_outputs then
    invalid_arg "Cardinality.bound_lit: bound out of the counter's capacity";
  r.r_outputs.(k)

let at_least ~next_var lits k =
  let n = List.length lits in
  if k <= 0 then { clauses = []; next_var }
  else if k > n then
    (* Unsatisfiable: the empty clause states it honestly. *)
    { clauses = [ Ec_cnf.Clause.make [] ]; next_var }
  else if k = 1 then { clauses = [ clause lits ]; next_var }
  else at_most ~next_var (List.map Ec_cnf.Lit.negate lits) (n - k)

let exactly ~next_var lits k =
  let upper = at_most ~next_var lits k in
  let lower = at_least ~next_var:upper.next_var lits k in
  { clauses = upper.clauses @ lower.clauses; next_var = lower.next_var }
