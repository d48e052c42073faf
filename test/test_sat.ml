(* Tests for Ec_sat: Cdcl (cross-checked against the test suite's
   DPLL oracle and brute force), Cardinality, Minimize — and the DPLL
   oracle itself against brute force. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module F = Ec_cnf.Formula
module C = Ec_cnf.Clause
module A = Ec_cnf.Assignment
module O = Ec_sat.Outcome

(* ---- random formula generator ---- *)

let formula_gen ~max_vars ~max_clauses =
  QCheck.Gen.(
    let* n = int_range 2 max_vars in
    let* m = int_range 1 max_clauses in
    let clause =
      let* w = int_range 1 (min 3 n) in
      let* vars = QCheck.Gen.shuffle_l (List.init n (fun i -> i + 1)) in
      let vars = List.filteri (fun i _ -> i < w) vars in
      let* signs = list_repeat w bool in
      return (List.map2 (fun v s -> if s then v else -v) vars signs)
    in
    let* clauses = list_repeat m clause in
    return (F.of_lists ~num_vars:n clauses))

let arb_formula =
  QCheck.make ~print:F.to_string (formula_gen ~max_vars:10 ~max_clauses:30)

(* exhaustive satisfiability for n <= 16 *)
let brute_sat f =
  let n = F.num_vars f in
  let rec loop mask =
    if mask >= 1 lsl n then false
    else begin
      let a =
        A.of_bool_list (List.init n (fun i -> mask land (1 lsl i) <> 0))
      in
      A.satisfies a f || loop (mask + 1)
    end
  in
  F.num_clauses f = 0 || loop 0

(* ---- Dpll ---- *)

let prop_dpll_correct =
  QCheck.Test.make ~name:"dpll = brute force" ~count:300 arb_formula (fun f ->
      match Dpll.solve f with
      | O.Sat a -> A.satisfies a f
      | O.Unsat -> not (brute_sat f)
      | O.Unknown _ -> false)

let test_dpll_trivial () =
  check Alcotest.string "empty formula" "sat"
    (O.to_string (Dpll.solve (F.of_lists ~num_vars:3 [])));
  check Alcotest.string "empty clause" "unsat"
    (O.to_string (Dpll.solve (F.create ~num_vars:1 [ C.make [] ])))

(* ---- Cdcl ---- *)

let prop_cdcl_matches_dpll =
  QCheck.Test.make ~name:"cdcl = dpll on random formulas" ~count:300 arb_formula
    (fun f ->
      let d = Dpll.solve f in
      let c = (Ec_sat.Cdcl.solve_response f).outcome in
      match (d, c) with
      | O.Sat a, O.Sat b -> A.satisfies a f && A.satisfies b f
      | O.Unsat, O.Unsat -> true
      | _, _ -> false)

let test_cdcl_units_and_conflict_at_load () =
  let f = F.of_lists ~num_vars:2 [ [ 1 ]; [ -1 ] ] in
  check Alcotest.string "contradicting units" "unsat"
    (O.to_string (Ec_sat.Cdcl.solve_response f).outcome);
  let f2 = F.of_lists ~num_vars:2 [ [ 1 ]; [ -1; 2 ] ] in
  (match (Ec_sat.Cdcl.solve_response f2).outcome with
  | O.Sat a ->
    check Alcotest.bool "unit propagated" true (A.value a 1 = A.True);
    check Alcotest.bool "implied" true (A.value a 2 = A.True)
  | _ -> Alcotest.fail "satisfiable")

let test_cdcl_assumptions () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  (match (Ec_sat.Cdcl.solve_response ~assumptions:[ -2 ] f).outcome with
  | O.Sat a ->
    check Alcotest.bool "assumption respected" true (A.value a 2 = A.False);
    check Alcotest.bool "forced v1" true (A.value a 1 = A.True)
  | _ -> Alcotest.fail "sat under ~v2");
  (match (Ec_sat.Cdcl.solve_response ~assumptions:[ 1; -3 ] f).outcome with
  | O.Unsat -> ()
  | _ -> Alcotest.fail "v1 & ~v3 contradicts (-1,3)")

(* Literal 0 and variables above the formula's count name no literal:
   both are rejected before any solving. *)
let test_cdcl_assumption_outside_variables () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  List.iter
    (fun l ->
      Alcotest.check_raises (Printf.sprintf "assumption %d" l)
        (Invalid_argument
           (Printf.sprintf "Cdcl.solve_response: assumption literal %d is outside variables 1..3" l))
        (fun () -> ignore (Ec_sat.Cdcl.solve_response ~assumptions:[ l ] f)))
    [ 7; 0; -4 ]

let prop_cdcl_assumptions_consistent =
  QCheck.Test.make ~name:"cdcl assumptions = adding units" ~count:200 arb_formula
    (fun f ->
      let n = F.num_vars f in
      let a1 = 1 and a2 = -(min n 2) in
      let with_assumptions = (Ec_sat.Cdcl.solve_response ~assumptions:[ a1; a2 ] f).outcome in
      let with_units =
        (Ec_sat.Cdcl.solve_response (F.add_clauses f [ C.make [ a1 ]; C.make [ a2 ] ])).outcome
      in
      match (with_assumptions, with_units) with
      | O.Sat _, O.Sat _ | O.Unsat, O.Unsat -> true
      | _, _ -> false)

(* Pigeonhole: n+1 pigeons, n holes, var p*n + h + 1; unsatisfiable. *)
let php n =
  let v p h = (p * n) + h + 1 in
  let at_least = List.init (n + 1) (fun p -> List.init n (fun h -> v p h)) in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 -> if p1 < p2 then Some [ -v p1 h; -v p2 h ] else None)
              (List.init (n + 1) Fun.id))
          (List.init (n + 1) Fun.id))
      (List.init n Fun.id)
  in
  F.of_lists ~num_vars:((n + 1) * n) (at_least @ at_most)

let test_cdcl_conflict_budget () =
  (* tiny budget on a pigeonhole instance gives Unknown *)
  let f = php 6 in
  (match
     (Ec_sat.Cdcl.solve_response
        ~options:
          { Ec_sat.Cdcl.default_options with
            budget = Ec_util.Budget.create ~conflicts:5 ()
          }
        f)
       .Ec_sat.Cdcl.outcome
   with
  | O.Unknown _ -> ()
  | O.Sat _ -> Alcotest.fail "php is unsat"
  | O.Unsat -> Alcotest.fail "5 conflicts cannot refute php6");
  (* and without budget it refutes it *)
  check Alcotest.string "php6 unsat" "unsat"
    (O.to_string (Ec_sat.Cdcl.solve_response f).outcome)

let test_cdcl_phase_hint () =
  (* on an unconstrained instance the hint is reproduced exactly *)
  let f = F.of_lists ~num_vars:6 [ [ 1; -1 ] ] in
  let f = F.add_var f in
  ignore f;
  let g = F.create ~num_vars:6 [] in
  let hint = A.of_list 6 [ (1, true); (2, false); (3, true); (4, true); (5, false); (6, false) ] in
  match
    (Ec_sat.Cdcl.solve_response
      ~options:{ Ec_sat.Cdcl.default_options with phase_hint = Some hint }
      g).outcome
  with
  | O.Sat a ->
    List.iter
      (fun v ->
        check Alcotest.bool (Printf.sprintf "v%d follows hint" v) true
          (A.value a v = A.value hint v))
      [ 1; 2; 3; 4; 5; 6 ]
  | _ -> Alcotest.fail "empty formula is sat"

(* Only variables some clause mentions are decided; the others take
   their saved phase: the hint's value, or false without one. *)
let test_cdcl_decides_mentioned_only () =
  let f = F.of_lists ~num_vars:50 [ [ 3; 17 ]; [ -17; 29 ]; [ -3; 41; -50 ]; [ 29; 50 ] ] in
  let mentioned = [ 3; 17; 29; 41; 50 ] in
  let hint = A.init 50 (fun v -> if v mod 3 = 0 then A.True else if v mod 3 = 1 then A.False else A.Dc) in
  List.iter
    (fun (label, phase_hint) ->
      let r = Ec_sat.Cdcl.solve_response ~options:{ Ec_sat.Cdcl.default_options with phase_hint } f in
      if r.stats.decisions > 5 then
        Alcotest.failf "%s: %d decisions for 5 mentioned variables" label r.stats.decisions;
      match r.outcome with
      | O.Sat a ->
        check Alcotest.bool (label ^ ": model") true (A.satisfies a f);
        for v = 1 to 50 do
          if not (List.mem v mentioned) then
            let expected =
              match phase_hint with Some h when A.value h v = A.True -> A.True | _ -> A.False
            in
            check Alcotest.string (Printf.sprintf "%s: v%d" label v)
              (A.value_to_string expected) (A.value_to_string (A.value a v))
        done
      | O.Unsat | O.Unknown _ -> Alcotest.fail (label ^ ": satisfiable formula"))
    [ ("hint", Some hint); ("no hint", None) ]

(* A session allocates headroom beyond the formula's variables
   ([capacity_for]); its first solve must not decide any of it. *)
let test_cdcl_session_skips_headroom () =
  let n = 20 in
  let f = F.of_lists ~num_vars:n (List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ])) in
  let s = Ec_sat.Cdcl.Session.create f in
  let r = Ec_sat.Cdcl.Session.solve_with_core s in
  check Alcotest.bool "sat" true (O.is_sat r.outcome);
  if r.counters.Ec_util.Budget.spent_nodes > n then
    Alcotest.failf "%d decisions for %d variables" r.counters.Ec_util.Budget.spent_nodes n

let test_cdcl_large_planted () =
  let rng = Ec_util.Rng.create 123 in
  let n = 400 in
  let planted = A.of_bool_list (List.init n (fun _ -> Ec_util.Rng.bool rng)) in
  let rec clause () =
    let c = Ec_cnf.Change.random_clause rng ~num_vars:n ~width:3 in
    if A.satisfies_clause planted c then c else clause ()
  in
  let f = F.create ~num_vars:n (List.init (4 * n) (fun _ -> clause ())) in
  match (Ec_sat.Cdcl.solve_response f).outcome with
  | O.Sat a -> check Alcotest.bool "model valid" true (A.satisfies a f)
  | _ -> Alcotest.fail "planted instance is satisfiable"

(* ---- CDCL work pins ---- *)

(* The solver's work is part of its contract: the data layout may
   change, the search may not.  Each pin is every [stats] field plus an
   MD5 of the model; php7 reaches [reduce_db]. *)

let md5_outcome = function
  | O.Sat a -> "sat " ^ Digest.to_hex (Digest.string (A.to_string a))
  | O.Unsat -> "unsat"
  | O.Unknown r -> "unknown " ^ Ec_util.Budget.reason_to_string r

let work_line (r : Ec_sat.Cdcl.response) =
  let s = r.stats in
  Printf.sprintf "d=%d p=%d c=%d r=%d l=%d x=%d %s" s.decisions s.propagations s.conflicts
    s.restarts s.learnt_clauses s.deleted_clauses (md5_outcome r.outcome)

let test_cdcl_work_instances () =
  let registry name = (Ec_instances.Registry.(build (find name))).formula in
  List.iter
    (fun (label, f, expected) ->
      check Alcotest.string label expected (work_line (Ec_sat.Cdcl.solve_response f)))
    [ ("jnh1", registry "jnh1", "d=64 p=100 c=0 r=0 l=0 x=0 sat 37384cabee32b876f90d985b92f744e6");
      ( "par8-1-c", registry "par8-1-c",
        "d=34 p=80 c=2 r=0 l=2 x=0 sat b611e31999909d6a905ee1e23f09ae94" );
      ( "par32-5", registry "par32-5",
        "d=11081 p=18686 c=29 r=0 l=29 x=0 sat 5020c1ec9d911262e2abf4e98e899ba5" );
      ( "g250.15", registry "g250.15",
        "d=4351 p=124810 c=418 r=3 l=418 x=0 sat 2adac68dba8485f90ebc7b798d66a99f" );
      ("php7", php 7, "d=6922 p=80528 c=5731 r=29 l=5727 x=2001 unsat") ]

(* One session stream over clauses a hidden model satisfies: three
   added before each solve, random assumptions over the session's
   variables, and every eighth step forty more variables, the second
   time past the capacity headroom (a rebuild).  Per call: outcome,
   core, spent conflicts and decisions. *)
let session_stream () =
  let rng = Ec_util.Rng.create 2002 in
  let hidden = A.of_bool_list (List.init 200 (fun _ -> Ec_util.Rng.bool rng)) in
  let planted num_vars m =
    List.init m (fun _ -> Ec_cnf.Change.random_clause_satisfied_by rng hidden ~num_vars ~width:3)
  in
  let s = Ec_sat.Cdcl.Session.create (F.create ~num_vars:50 (planted 50 210)) in
  let nv = ref 50 in
  List.init 24 (fun step ->
      if step mod 8 = 7 then nv := !nv + 40;
      Ec_sat.Cdcl.Session.add_clauses s (planted !nv 3);
      let assumptions =
        List.map
          (fun v -> if Ec_util.Rng.bool rng then v + 1 else -(v + 1))
          (Ec_util.Rng.sample rng (3 + Ec_util.Rng.int rng 10) (Ec_sat.Cdcl.Session.num_vars s))
      in
      let r = Ec_sat.Cdcl.Session.solve_with_core ~assumptions s in
      Printf.sprintf "%s core=[%s] c=%d d=%d" (md5_outcome r.outcome)
        (String.concat "," (List.map string_of_int r.core))
        r.counters.Ec_util.Budget.spent_conflicts r.counters.Ec_util.Budget.spent_nodes)

let session_stream_expected =
  [ "unsat core=[44,-18,35,-6,48,4,-15] c=1 d=0";
    "sat 9403780c54fcbefaf1133e357ebc79d2 core=[] c=0 d=8";
    "unsat core=[-14,-18,-3] c=5 d=3";
    "unsat core=[-18,2,3,-16] c=1 d=0";
    "unsat core=[-16,-49,2,-34] c=4 d=1";
    "sat 2d5c584c8f1e51ef9a17c71754459602 core=[] c=2 d=16";
    "unsat core=[-50,3] c=1 d=0";
    "unsat core=[13,-4,34,11] c=0 d=0";
    "unsat core=[33,22] c=6 d=4";
    "sat 564deb126bcc565276d1c4a6e1c7103f core=[] c=1 d=16";
    "sat 32f168a82f95d640f1c1fe769d77cbcc core=[] c=0 d=35";
    "sat 47056f62242226166abd260c46e7092b core=[] c=0 d=34";
    "sat ef21f25157b37aedc2f6386bfdedec83 core=[] c=0 d=45";
    "sat c7b3e1b696934e4d8a289ae57e28e3d7 core=[] c=0 d=48";
    "sat 9e07b97e50c2c1e4c709cb542eb59f46 core=[] c=0 d=38";
    "sat 64d0e14dc5ea8e7d934786be1002f5f4 core=[] c=9 d=41";
    "sat bf7a7f4a70147c1b41509595df84cd67 core=[] c=8 d=46";
    "sat 7b2c3567a4ff174410d16782196ebcf8 core=[] c=0 d=43";
    "sat ba43fa6589d284ea61fb7a3a7c0ec33a core=[] c=10 d=64";
    "sat ba43fa6589d284ea61fb7a3a7c0ec33a core=[] c=0 d=52";
    "unsat core=[-33,-46,-30] c=3 d=0";
    "sat fdd587370f17261d9dbfece2c2f414c6 core=[] c=7 d=66";
    "sat 5d5e5885cd3c79cff399e0ce3fb2d44f core=[] c=0 d=66";
    "sat 780d74d390ce926af3e1256bbc303d1c core=[] c=0 d=74" ]

let test_cdcl_work_session () =
  check Alcotest.(list string) "per call" session_stream_expected (session_stream ())

(* MaxSAT through preserving EC on a repaired f600 change: the f600
   base with twenty clauses added that its DC-recovered planted model
   violates, three pins. *)
let test_cdcl_work_maxsat () =
  let inst = Ec_instances.Registry.(build (find "f600")) in
  let f = inst.Ec_instances.Registry.formula in
  let reference = Ec_sat.Minimize.recover_dc f inst.Ec_instances.Registry.planted in
  let rng = Ec_util.Rng.create 5 in
  let rec violated () =
    let c = Ec_cnf.Change.random_clause rng ~num_vars:(F.num_vars f) ~width:3 in
    if C.exists (A.lit_true reference) c then violated () else c
  in
  let f = F.add_clauses f (List.init 20 (fun _ -> violated ())) in
  let r =
    Ec_core.Preserving.resolve
      ~engine:(Ec_core.Preserving.Sat_maxsat Ec_sat.Maxsat.default_options)
      ~pins:[ 3; 7; 11 ] f ~reference
  in
  check Alcotest.string "maxsat work"
    "preserved=576/600 optimal=true sat_calls=26 cores=24 encoded=4808 c=165 d=887 \
     c2525b99854f47e0a0dda001b415f196"
    (Printf.sprintf "preserved=%d/%d optimal=%b sat_calls=%d cores=%d encoded=%d c=%d d=%d %s"
       r.preserved r.total r.optimal r.work.probes r.work.cores r.work.clauses_encoded
       r.counters.Ec_util.Budget.spent_conflicts r.counters.Ec_util.Budget.spent_nodes
       (match r.solution with
       | Some a -> Digest.to_hex (Digest.string (A.to_string a))
       | None -> "none"))

(* ---- Cardinality ---- *)

let count_true a lits =
  List.length (List.filter (A.lit_true a) lits)

let prop_at_most_sound =
  (* solving base + at_most k never yields more than k true literals,
     and when brute force says k true literals are reachable, the
     encoding stays satisfiable *)
  QCheck.Test.make ~name:"sequential counter at_most semantics" ~count:200
    QCheck.(pair (int_range 1 6) (int_range 0 6))
    (fun (n, k) ->
      let lits = List.init n (fun i -> i + 1) in
      let enc = Ec_sat.Cardinality.at_most ~next_var:(n + 1) lits k in
      let f = F.create ~num_vars:(max n (enc.next_var - 1)) enc.clauses in
      (* brute force over original vars, extend by DPLL over aux *)
      let rec all_assignments i acc =
        if i > n then [ acc ]
        else
          all_assignments (i + 1) (A.set acc i A.True)
          @ all_assignments (i + 1) (A.set acc i A.False)
      in
      List.for_all
        (fun a ->
          let cnt = count_true a lits in
          (* fix original vars via assumptions; satisfiable iff cnt <= k *)
          let assumptions =
            List.map (fun v -> if A.value a v = A.True then v else -v) lits
          in
          let outcome = (Ec_sat.Cdcl.solve_response ~assumptions f).outcome in
          if cnt <= k then O.is_sat outcome else not (O.is_sat outcome))
        (all_assignments 1 (A.make (max n (enc.next_var - 1)))))

let test_at_most_edges () =
  let lits = [ 1; 2; 3 ] in
  let e0 = Ec_sat.Cardinality.at_most ~next_var:4 lits 0 in
  check Alcotest.int "k=0 gives unit clauses" 3 (List.length e0.clauses);
  let e3 = Ec_sat.Cardinality.at_most ~next_var:4 lits 3 in
  check Alcotest.int "k>=n gives nothing" 0 (List.length e3.clauses);
  Alcotest.check_raises "negative k"
    (Invalid_argument "Cardinality.at_most: negative bound") (fun () ->
      ignore (Ec_sat.Cardinality.at_most ~next_var:4 lits (-1)));
  Alcotest.check_raises "aux collision"
    (Invalid_argument "Cardinality.at_most: next_var collides with input literals")
    (fun () -> ignore (Ec_sat.Cardinality.at_most ~next_var:2 lits 1))

let test_at_least_exactly () =
  let lits = [ 1; 2; 3; 4 ] in
  let al = Ec_sat.Cardinality.at_least ~next_var:5 lits 1 in
  check Alcotest.int "at_least 1 is one clause" 1 (List.length al.clauses);
  let e = Ec_sat.Cardinality.exactly ~next_var:5 lits 2 in
  let f = F.create ~num_vars:(e.next_var - 1) e.clauses in
  (* check by assumptions: exactly-2 assignments sat, others unsat *)
  let cases = [ ([ 1; 2; -3; -4 ], true); ([ 1; -2; -3; -4 ], false); ([ 1; 2; 3; -4 ], false) ] in
  List.iter
    (fun (assumptions, expected) ->
      let outcome = (Ec_sat.Cdcl.solve_response ~assumptions f).outcome in
      check Alcotest.bool (String.concat "," (List.map string_of_int assumptions))
        expected (O.is_sat outcome))
    cases;
  let imposs = Ec_sat.Cardinality.at_least ~next_var:5 lits 5 in
  check Alcotest.bool "at_least > n unsatisfiable" true
    (List.exists C.is_empty imposs.clauses)

(* ---- Minimize ---- *)

let test_minimize_keeps_satisfaction () =
  let f = F.of_lists ~num_vars:4 [ [ 1; 2 ]; [ 2; 3 ]; [ -4; 2 ] ] in
  let a = A.of_list 4 [ (1, true); (2, true); (3, true); (4, false) ] in
  let m = Ec_sat.Minimize.recover_dc f a in
  check Alcotest.bool "still satisfies" true (A.satisfies m f);
  check Alcotest.bool "gained DCs" true (A.dc_count m > A.dc_count a)

let prop_minimize_sound =
  QCheck.Test.make ~name:"recover_dc preserves satisfaction, never loses DCs"
    ~count:300 arb_formula (fun f ->
      match (Ec_sat.Cdcl.solve_response f).outcome with
      | O.Sat a ->
        let m = Ec_sat.Minimize.recover_dc f a in
        A.satisfies m f && A.dc_count m >= A.dc_count a
      | O.Unsat -> QCheck.assume_fail ()
      | O.Unknown _ -> false)

let prop_minimize_orders_agree_on_soundness =
  QCheck.Test.make ~name:"recover_dc orders both sound" ~count:150 arb_formula
    (fun f ->
      match (Ec_sat.Cdcl.solve_response f).outcome with
      | O.Sat a ->
        let m1 = Ec_sat.Minimize.recover_dc ~order:Ec_sat.Minimize.Ascending_vars f a in
        let m2 =
          Ec_sat.Minimize.recover_dc ~order:Ec_sat.Minimize.Fewest_occurrences_first f a
        in
        A.satisfies m1 f && A.satisfies m2 f
      | O.Unsat -> QCheck.assume_fail ()
      | O.Unknown _ -> false)

let test_minimize_dc_gain () =
  let f = F.of_lists ~num_vars:3 [ [ 1 ] ] in
  let a = A.of_list 3 [ (1, true); (2, true); (3, false) ] in
  check Alcotest.int "gain counts unconstrained vars" 2 (Ec_sat.Minimize.dc_gain f a)

let tests =
  [ ( "sat.dpll",
      [ Alcotest.test_case "trivial cases" `Quick test_dpll_trivial;
        qtest prop_dpll_correct ] );
    ( "sat.cdcl",
      [ Alcotest.test_case "units and conflicts at load" `Quick
          test_cdcl_units_and_conflict_at_load;
        Alcotest.test_case "assumptions" `Quick test_cdcl_assumptions;
        Alcotest.test_case "assumptions outside the variables" `Quick
          test_cdcl_assumption_outside_variables;
        Alcotest.test_case "conflict budget + php" `Slow test_cdcl_conflict_budget;
        Alcotest.test_case "phase hint" `Quick test_cdcl_phase_hint;
        Alcotest.test_case "large planted instance" `Quick test_cdcl_large_planted;
        Alcotest.test_case "decides mentioned variables only" `Quick
          test_cdcl_decides_mentioned_only;
        Alcotest.test_case "session skips headroom" `Quick test_cdcl_session_skips_headroom;
        qtest prop_cdcl_matches_dpll;
        qtest prop_cdcl_assumptions_consistent ] );
    ( "sat.cdcl work",
      [ Alcotest.test_case "instances" `Quick test_cdcl_work_instances;
        Alcotest.test_case "session stream" `Quick test_cdcl_work_session;
        Alcotest.test_case "maxsat on a repaired f600 change" `Quick test_cdcl_work_maxsat ] );
    ( "sat.cardinality",
      [ Alcotest.test_case "edge cases" `Quick test_at_most_edges;
        Alcotest.test_case "at_least / exactly" `Quick test_at_least_exactly;
        qtest prop_at_most_sound ] );
    ( "sat.minimize",
      [ Alcotest.test_case "keeps satisfaction" `Quick test_minimize_keeps_satisfaction;
        Alcotest.test_case "dc gain" `Quick test_minimize_dc_gain;
        qtest prop_minimize_sound;
        qtest prop_minimize_orders_agree_on_soundness ] ) ]
