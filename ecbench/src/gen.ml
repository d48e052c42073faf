(* Input generators.  Everything a run sends is drawn from the workload
   seed here, before the timed window opens.  Where a draw could leave
   its request class (an unsatisfiable preserve instance, a serve step
   answering other than built for) it is checked against the planted
   model and redrawn: a request in another cost mode would put a cliff
   between the reported percentiles. *)

module A = Ec_cnf.Assignment
module F = Ec_cnf.Formula
module C = Ec_cnf.Change
module R = Ec_util.Rng
module Registry = Ec_instances.Registry

(* ---- enable: fresh par8-family instances at paper size ---- *)

let par8 = Registry.find "par8-1-c"

let enable_instances ~seed n =
  let rng = R.create seed in
  Array.init n (fun _ ->
      (Registry.build { par8 with Registry.seed = R.int rng 1_000_000_000 }).Registry.formula)

(* ---- fast / preserve: one f600 base, many change scripts ---- *)

(* The base does not depend on the workload seed, so every seed pays
   the same set-up; the seed picks the change scripts. *)
let f600 () = Registry.build (Registry.find "f600")

(* Table 2 changes: eliminate 3 variables (never emptying a clause),
   then add 10 random width-3 clauses over the surviving variables —
   what [Change.fast_ec_script] draws, without its whole-formula passes
   per draw, so thousands of scripts cost milliseconds.  Not filtered
   through the planted model: clauses it satisfies are mostly satisfied
   by the initial solution too, which would turn most requests into the
   ~1 ms already-satisfied class. *)
let fast_scripts ~seed (base : Registry.instance) n =
  let f = base.formula in
  let used = Array.of_list (F.vars_used f) in
  let rng = R.create seed in
  let empties elims v =
    List.exists
      (fun i ->
        Ec_cnf.Clause.for_all
          (fun l -> List.mem (Ec_cnf.Lit.var l) (v :: elims))
          (F.clause f i))
      (F.var_occurrences f v)
  in
  let rec pick elims k =
    if k = 0 then List.rev elims
    else
      let v = R.pick rng used in
      if List.mem v elims || empties elims v then pick elims k else pick (v :: elims) (k - 1)
  in
  Array.init n (fun _ ->
      let elims = pick [] 3 in
      let surviving = Array.of_list (List.filter (fun v -> not (List.mem v elims)) (Array.to_list used)) in
      let clause () =
        R.sample rng 3 (Array.length surviving)
        |> List.map (fun i -> Ec_cnf.Lit.make surviving.(i) (R.bool rng))
        |> Ec_cnf.Clause.make
      in
      List.map (fun v -> C.Eliminate_var v) elims @ List.init 10 (fun _ -> C.Add_clause (clause ())))

(* Table 3 changes, in [Change.preserving_ec_script]'s order: delete 5
   clauses, eliminate 5 variables, add 5 variables, add 5 random
   width-3 clauses.  Each tightening draw is kept only if the planted
   model still satisfies every clause, checked on the benchmark's own
   copy of the clauses rather than by a solver call or a rebuilt
   formula, so a pool of hundreds of scripts costs milliseconds. *)
let preserve_scripts ~seed (base : Registry.instance) n =
  let rng = R.create seed in
  let nvars0 = F.num_vars base.formula in
  let truth l =
    let v = Ec_cnf.Lit.var l in
    v <= nvars0 && A.lit_true base.planted l
  in
  let script () =
    let clauses = ref (Array.to_list (Array.map Ec_cnf.Clause.lits (F.clauses base.formula))) in
    let removes =
      List.init 5 (fun _ ->
          let i = R.int rng (List.length !clauses) in
          clauses := List.filteri (fun j _ -> j <> i) !clauses;
          C.Remove_clause i)
    in
    let used =
      let mark = Array.make (nvars0 + 1) false in
      List.iter (Array.iter (fun l -> mark.(Ec_cnf.Lit.var l) <- true)) !clauses;
      ref (Array.of_list (List.filter (fun v -> mark.(v)) (List.init nvars0 (fun i -> i + 1))))
    in
    (* v may go if every clause holding it keeps a planted-true literal
       on another variable (so none becomes empty either). *)
    let safe v =
      List.for_all
        (fun c ->
          (not (Array.exists (fun l -> Ec_cnf.Lit.var l = v) c))
          || Array.exists (fun l -> Ec_cnf.Lit.var l <> v && truth l) c)
        !clauses
    in
    let elims =
      List.filter_map
        (fun _ ->
          let rec pick tries =
            if tries = 0 then None
            else
              let v = R.pick rng !used in
              if safe v then Some v else pick (tries - 1)
          in
          match pick 64 with
          | None -> None
          | Some v ->
            used := Array.of_list (List.filter (fun w -> w <> v) (Array.to_list !used));
            let holds c = Array.exists (fun l -> Ec_cnf.Lit.var l = v) c in
            clauses :=
              List.map
                (fun c ->
                  if holds c then
                    Array.of_list (List.filter (fun l -> Ec_cnf.Lit.var l <> v) (Array.to_list c))
                  else c)
                !clauses;
            Some (C.Eliminate_var v))
        (List.init 5 Fun.id)
    in
    let nvars = nvars0 + 5 in
    let rec planted_clause () =
      let c = C.random_clause rng ~num_vars:nvars ~width:3 in
      if Ec_cnf.Clause.exists truth c then c else planted_clause ()
    in
    removes @ elims @ List.init 5 (fun _ -> C.Add_var)
    @ List.init 5 (fun _ -> C.Add_clause (planted_clause ()))
  in
  Array.init n (fun _ -> script ())

(* ---- serve: resident f600-family sessions and a fixed step mix ---- *)

type kind = Add | Remove | Pin_sat | Pin_unsat

let kind_name = function
  | Add -> "add"
  | Remove -> "remove"
  | Pin_sat -> "pin_sat"
  | Pin_unsat -> "pin_unsat"

(* 60% add, 20% remove, 10% satisfiable pin, 10% unsatisfiable pin. *)
let mix = [| Add; Add; Remove; Add; Pin_sat; Add; Add; Remove; Add; Pin_unsat |]

type delta =
  | Add_clauses of int list list
  | Remove_vars of int list
  | Pin of int list

type step = { kind : kind; delta : delta }

(* What the step's solve must answer: every delta keeps the planted
   model a witness, so only the pin built from a negated clause is
   unsatisfiable. *)
let expected_status = function
  | Add | Remove | Pin_sat -> "sat"
  | Pin_unsat -> "unsat"

type session = {
  sname : string;
  formula : F.t;
  planted : bool array;  (* indexed by variable; 0 unused *)
  steps : step array;
}

let planted_bools n a =
  Array.init (n + 1) (fun v -> v >= 1 && A.value a v = A.True)

(* Applies a step's delta to a clause list (newest clause first); the
   checker replays the same function. *)
let apply_delta clauses = function
  | Add_clauses cs -> List.rev_append (List.map Array.of_list cs) clauses
  | Remove_vars vs ->
    List.map
      (fun c -> Array.of_list (List.filter (fun l -> not (List.mem (abs l) vs)) (Array.to_list c)))
      clauses
  | Pin _ -> clauses

let serve_steps rng ~planted ~nvars formula n =
  let removed = Array.make (nvars + 1) false in
  let clauses = ref (Mirror.of_formula formula) in
  let truth l = planted.(abs l) = (l > 0) in
  let rec live_vars k =
    let vs = List.map (fun i -> i + 1) (R.sample rng k nvars) in
    if List.exists (fun v -> removed.(v)) vs then live_vars k else vs
  in
  (* Two literals true under the planted model, as in the f600
     family itself, so later removals stay possible. *)
  let rec planted_clause () =
    let c = List.map (fun v -> if R.bool rng then v else -v) (live_vars 3) in
    if List.length (List.filter truth c) >= 2 then c else planted_clause ()
  in
  (* A variable may go only if it occurs and no clause keeps the
     planted model true through that variable alone. *)
  let removable v =
    let occurs = ref false in
    let safe =
      List.for_all
        (fun c ->
          if Array.exists (fun l -> abs l = v) c then begin
            occurs := true;
            Array.exists (fun l -> abs l <> v && truth l) c
          end
          else true)
        !clauses
    in
    safe && !occurs
  in
  let rec removable_var tries =
    if tries = 0 then failwith "serve_steps: no removable variable left";
    match live_vars 1 with
    | [ v ] when removable v -> v
    | _ -> removable_var (tries - 1)
  in
  let step i =
    let kind = mix.(i mod Array.length mix) in
    let delta =
      match kind with
      | Add -> Add_clauses (List.init 4 (fun _ -> planted_clause ()))
      | Remove ->
        let v = removable_var 10_000 in
        removed.(v) <- true;
        Remove_vars [ v ]
      | Pin_sat ->
        Pin (List.map (fun v -> if planted.(v) then v else -v) (live_vars 3))
      | Pin_unsat ->
        let live = Array.of_list (List.filter (fun c -> Array.length c > 0) !clauses) in
        Pin (List.map (fun l -> -l) (Array.to_list (R.pick rng live)))
    in
    clauses := apply_delta !clauses delta;
    { kind; delta }
  in
  Array.init n step

(* Steps per session before the client closes it and creates a fresh
   one.  Removals only ever shrink the set of variables that may go, so
   a session cannot take deltas forever; a fresh f600-family session
   every [cycle_steps] steps keeps every step drawn from the same
   distribution however long the window or fast the daemon. *)
let cycle_steps = 100

(* Two lanes (resident sessions), each a sequence of [cycles] sessions
   of [cycle_steps] steps. *)
let serve_lanes ~seed ~cycles =
  let rng = R.create seed in
  Array.init 2 (fun lane ->
      Array.init cycles (fun _ ->
          let formula, planted =
            Ec_instances.Random_ksat.generate ~seed:(R.int rng 1_000_000_000) ~num_vars:600
              ~num_clauses:2550 ()
          in
          let nvars = F.num_vars formula in
          let planted = planted_bools nvars planted in
          { sname = Printf.sprintf "s%d" lane;
            formula;
            planted;
            steps = serve_steps (R.split rng) ~planted ~nvars formula cycle_steps }))
