type t =
  | Sat of Ec_cnf.Assignment.t
  | Unsat
  | Unknown of Ec_util.Budget.reason

let is_sat = function Sat _ -> true | Unsat | Unknown _ -> false

(* Chaos-test support ({!Ec_util.Fault}): deterministic single-bit
   damage to a Sat model, and wholesale forgery of UNSAT.  Kept here so
   every SAT engine's failpoints corrupt answers the same way. *)
let corrupt rng = function
  | Sat a when Ec_cnf.Assignment.num_vars a > 0 ->
    let v = 1 + Ec_util.Rng.int rng (Ec_cnf.Assignment.num_vars a) in
    let flipped =
      match Ec_cnf.Assignment.value a v with
      | Ec_cnf.Assignment.True -> Ec_cnf.Assignment.False
      | Ec_cnf.Assignment.False -> Ec_cnf.Assignment.True
      | Ec_cnf.Assignment.Dc -> Ec_cnf.Assignment.True
    in
    Sat (Ec_cnf.Assignment.set a v flipped)
  | o -> o

let forge_unsat = function Sat _ -> Unsat | o -> o

let to_string = function
  | Sat _ -> "sat"
  | Unsat -> "unsat"
  | Unknown Ec_util.Budget.Completed -> "unknown"
  | Unknown r -> "unknown (" ^ Ec_util.Budget.reason_to_string r ^ ")"
