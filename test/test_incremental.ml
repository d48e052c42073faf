(* Tests for Ec_sat.Incremental: session answers must always equal
   from-scratch solves over the accumulated formula. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module F = Ec_cnf.Formula
module C = Ec_cnf.Clause
module A = Ec_cnf.Assignment
module O = Ec_sat.Outcome
module I = Ec_sat.Incremental

let test_session_basics () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let s = I.create f in
  check Alcotest.int "vars" 3 (I.num_vars s);
  (match I.solve s with
  | O.Sat a -> check Alcotest.bool "model" true (A.satisfies a f)
  | _ -> Alcotest.fail "sat");
  I.add_clause s (C.make [ -2 ]);
  (match I.solve s with
  | O.Sat a ->
    check Alcotest.bool "v2 false now" true (A.value a 2 = A.False);
    check Alcotest.bool "v1 forced" true (A.value a 1 = A.True)
  | _ -> Alcotest.fail "still sat");
  I.add_clause s (C.make [ -1 ]);
  check Alcotest.string "now unsat" "unsat" (O.to_string (I.solve s));
  (* dead sessions stay dead *)
  I.add_clause s (C.make [ 2 ]);
  check Alcotest.string "stays unsat" "unsat" (O.to_string (I.solve s));
  check Alcotest.int "solve count" 4 (I.solve_count s)

let test_session_var_growth () =
  let s = I.create (F.of_lists ~num_vars:2 [ [ 1; 2 ] ]) in
  I.add_clause s (C.make [ 7; -1 ]);
  check Alcotest.int "grown" 7 (I.num_vars s);
  (match I.solve s with
  | O.Sat a -> check Alcotest.int "model covers new vars" 7 (A.num_vars a)
  | _ -> Alcotest.fail "sat");
  (* force a rebuild well past the headroom *)
  I.add_clause s (C.make [ 500 ]);
  check Alcotest.int "rebuilt" 500 (I.num_vars s);
  match I.solve s with
  | O.Sat a -> check Alcotest.bool "unit honoured" true (A.value a 500 = A.True)
  | _ -> Alcotest.fail "sat after rebuild"

let test_session_assumptions () =
  let s = I.create (F.of_lists ~num_vars:2 [ [ 1; 2 ] ]) in
  check Alcotest.bool "sat under ~v1" true (O.is_sat (I.solve ~assumptions:[ -1 ] s));
  check Alcotest.string "unsat under both negative" "unsat"
    (O.to_string (I.solve ~assumptions:[ -1; -2 ] s));
  (* assumption-unsat must not kill the session *)
  check Alcotest.bool "still alive" true (O.is_sat (I.solve s))

(* The per-call budget (the serve daemon's watchdog hook): a cancelled
   budget answers [Unknown Cancelled] even on a trivially satisfiable
   session, and the session stays usable for the next call. *)
let test_session_per_call_budget () =
  let s = I.create (F.of_lists ~num_vars:2 [ [ 1; 2 ] ]) in
  let cancelled = Atomic.make true in
  (match I.solve ~budget:(Ec_util.Budget.create ~cancel:cancelled ()) s with
  | O.Unknown Ec_util.Budget.Cancelled -> ()
  | o -> Alcotest.failf "expected cancelled, got %s" (O.to_string o));
  check Alcotest.bool "session survives a cancelled call" true
    (O.is_sat (I.solve s));
  (* an exhausted conflict budget caps only its own call *)
  let tight = Ec_util.Budget.create ~conflicts:0 () in
  (match I.solve ~budget:tight s with
  | O.Unknown _ | O.Sat _ -> () (* trivial instances may finish before a check *)
  | O.Unsat -> Alcotest.fail "budget must not invent a verdict");
  check Alcotest.bool "still alive after the capped call" true
    (O.is_sat (I.solve s))

(* solve_with_core: the MaxSAT-facing query.  The core must be a
   subset of the assumptions, itself sufficient for unsatisfiability,
   and assumption-unsat must leave the session alive; only an
   unconditional Unsat (no assumptions) kills it, with an empty core. *)
let test_solve_with_core () =
  let s = I.create (F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -2; 3 ] ]) in
  let r = I.solve_with_core ~assumptions:[ 1 ] s in
  (match r.I.outcome with O.Sat _ -> () | o -> Alcotest.failf "sat expected, got %s" (O.to_string o));
  check Alcotest.(list int) "no core on sat" [] r.I.core;
  let asm = [ -1; -2; 3 ] in
  let r = I.solve_with_core ~assumptions:asm s in
  (match r.I.outcome with
  | O.Unsat -> ()
  | o -> Alcotest.failf "unsat expected, got %s" (O.to_string o));
  check Alcotest.bool "core nonempty" true (r.I.core <> []);
  check Alcotest.bool "core within assumptions" true
    (List.for_all (fun l -> List.mem l asm) r.I.core);
  (* the core alone must reproduce the refutation *)
  (match (I.solve_with_core ~assumptions:r.I.core s).I.outcome with
  | O.Unsat -> ()
  | o -> Alcotest.failf "core insufficient: %s" (O.to_string o));
  check Alcotest.bool "session survives assumption-unsat" true
    (O.is_sat (I.solve s));
  (* unconditional unsat: empty core and a dead session *)
  I.add_clause s (C.make [ -1 ]);
  I.add_clause s (C.make [ -2 ]);
  let r = I.solve_with_core s in
  (match r.I.outcome with
  | O.Unsat -> ()
  | o -> Alcotest.failf "hard unsat expected, got %s" (O.to_string o));
  check Alcotest.(list int) "no core without assumptions" [] r.I.core;
  check Alcotest.string "session now dead" "unsat" (O.to_string (I.solve s))

(* A cancelled per-call budget reaches solve_with_core too: Unknown,
   no core, live session — the MaxSAT loop turns this into Stopped. *)
let test_solve_with_core_budget () =
  let s = I.create (F.of_lists ~num_vars:2 [ [ 1; 2 ] ]) in
  let cancelled = Atomic.make true in
  let r =
    I.solve_with_core ~assumptions:[ -1 ]
      ~budget:(Ec_util.Budget.create ~cancel:cancelled ()) s
  in
  (match r.I.outcome with
  | O.Unknown Ec_util.Budget.Cancelled -> ()
  | o -> Alcotest.failf "cancelled expected, got %s" (O.to_string o));
  check Alcotest.(list int) "no core on unknown" [] r.I.core;
  check Alcotest.bool "alive after cancelled call" true (O.is_sat (I.solve s))

let test_session_empty_clause () =
  let s = I.create (F.of_lists ~num_vars:1 [ [ 1 ] ]) in
  I.add_clause s (C.make []);
  check Alcotest.string "empty clause kills" "unsat" (O.to_string (I.solve s))

(* Property: a session fed a random change stream answers exactly like
   from-scratch CDCL on the accumulated formula, at every step. *)
let prop_session_equals_scratch =
  let gen =
    QCheck.Gen.(
      let* n = int_range 3 8 in
      let* steps = int_range 1 10 in
      let clause =
        let* w = int_range 1 (min 3 n) in
        let* vars = QCheck.Gen.shuffle_l (List.init n (fun i -> i + 1)) in
        let vars = List.filteri (fun i _ -> i < w) vars in
        let* signs = list_repeat w bool in
        return (List.map2 (fun v s -> if s then v else -v) vars signs)
      in
      let* initial = list_repeat 3 clause in
      let* additions = list_repeat steps clause in
      return (n, initial, additions))
  in
  QCheck.Test.make ~name:"incremental = scratch at every step" ~count:150
    (QCheck.make gen)
    (fun (n, initial, additions) ->
      let f0 = F.of_lists ~num_vars:n initial in
      let session = I.create f0 in
      let ok =
        ref (O.is_sat (I.solve session) = O.is_sat (Ec_sat.Cdcl.solve_response f0).outcome)
      in
      let f = ref f0 in
      List.iter
        (fun lits ->
          match C.make_opt lits with
          | None -> ()
          | Some c ->
            f := F.add_clause !f c;
            I.add_clause session c;
            let inc = I.solve session in
            let scr = (Ec_sat.Cdcl.solve_response !f).outcome in
            (match (inc, scr) with
            | O.Sat a, O.Sat _ -> if not (A.satisfies a !f) then ok := false
            | O.Unsat, O.Unsat -> ()
            | _, _ -> ok := false))
        additions;
      !ok)

let tests =
  [ ( "sat.incremental",
      [ Alcotest.test_case "basics" `Quick test_session_basics;
        Alcotest.test_case "variable growth + rebuild" `Quick test_session_var_growth;
        Alcotest.test_case "assumptions" `Quick test_session_assumptions;
        Alcotest.test_case "per-call budget" `Quick test_session_per_call_budget;
        Alcotest.test_case "solve_with_core" `Quick test_solve_with_core;
        Alcotest.test_case "solve_with_core budget" `Quick test_solve_with_core_budget;
        Alcotest.test_case "empty clause" `Quick test_session_empty_clause;
        qtest prop_session_equals_scratch ] ) ]
