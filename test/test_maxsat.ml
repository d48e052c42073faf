(* Tests for Ec_sat.Maxsat: certified optima against brute force,
   deterministic work counters, budget truncation with an incumbent,
   the corrupted-core containment drill, and the work comparison
   against repeated ILP on Table 3 trials. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module F = Ec_cnf.Formula
module C = Ec_cnf.Clause
module A = Ec_cnf.Assignment
module M = Ec_sat.Maxsat

(* all total assignments over n variables *)
let enum_assignments n =
  let rec go i acc =
    if i > n then [ acc ]
    else
      go (i + 1) ((i, true) :: acc) @ go (i + 1) ((i, false) :: acc)
  in
  List.map (A.of_list n) (go 1 [])

(* brute-force minimum soft violations among models, None if unsat *)
let brute_min_cost soft f =
  List.fold_left
    (fun best a ->
      if A.satisfies a f then
        let c = M.cost_of soft a in
        match best with None -> Some c | Some b -> Some (min b c)
      else best)
    None
    (enum_assignments (F.num_vars f))

let certify f r =
  match Ec_core.Certify.check_maxsat f r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "check_maxsat rejected the result: %s" msg

let test_optimum_simple () =
  (* (1 ∨ 2) with both "keep false" soft: exactly one must break *)
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let r = M.solve ~soft:[ -1; -2 ] f in
  (match r.M.verdict with
  | M.Optimum b ->
    check Alcotest.int "cost 1" 1 b.M.cost;
    check Alcotest.bool "model satisfies" true (A.satisfies b.M.model f);
    check Alcotest.int "recount agrees" 1 (M.cost_of r.M.soft b.M.model)
  | _ -> Alcotest.fail "optimum expected");
  check Alcotest.int "one core" 1 (List.length r.M.cores);
  check Alcotest.int "lower bound 1" 1 r.M.lower_bound;
  check Alcotest.int "stats.cores = lb" 1 r.M.stats.M.cores;
  certify f r

let test_zero_cost () =
  (* soft lits entailed by the hard units: every model has cost 0, so
     the incumbent probe settles it in one call, no cores, and no
     relaxation clauses beyond the hard ones *)
  let f = F.of_lists ~num_vars:3 [ [ 1 ]; [ 3 ] ] in
  let r = M.solve ~soft:[ 1; 3 ] f in
  (match r.M.verdict with
  | M.Optimum b -> check Alcotest.int "cost 0" 0 b.M.cost
  | _ -> Alcotest.fail "optimum expected");
  check Alcotest.int "no cores" 0 (List.length r.M.cores);
  check Alcotest.int "one sat call" 1 r.M.stats.M.sat_calls;
  check Alcotest.int "only the hard clauses encoded" (F.num_clauses f)
    r.M.stats.M.clauses_encoded;
  certify f r

let test_hard_unsat () =
  let f = F.of_lists ~num_vars:1 [ [ 1 ]; [ -1 ] ] in
  let r = M.solve ~soft:[ 1 ] f in
  (match r.M.verdict with
  | M.Hard_unsat -> ()
  | _ -> Alcotest.fail "hard unsat expected");
  certify f r

let test_stopped_budget () =
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let cancelled = Atomic.make true in
  let options =
    { M.default_options with
      budget = Ec_util.Budget.create ~cancel:cancelled ()
    }
  in
  let r = M.solve ~options ~soft:[ -1; -2 ] f in
  (match r.M.verdict with
  | M.Stopped { reason = Ec_util.Budget.Cancelled; incumbent = None } -> ()
  | M.Stopped _ -> Alcotest.fail "expected a cancelled stop with no incumbent"
  | _ -> Alcotest.fail "stopped expected");
  check Alcotest.int "nothing proved" 0 r.M.lower_bound;
  certify f r

let test_invalid_soft () =
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  Alcotest.(check bool) "out-of-range soft rejected" true
    (try
       ignore (M.solve ~soft:[ 5 ] f);
       false
     with Invalid_argument _ -> true)

(* Multi-core instance: (1∨2) ∧ (3∨4) with all four "keep false" soft
   — two disjoint cores, optimum cost 2.  The second identical solve
   must spend exactly the same deterministic work. *)
let test_multi_core_deterministic () =
  let f = F.of_lists ~num_vars:4 [ [ 1; 2 ]; [ 3; 4 ] ] in
  let soft = [ -1; -2; -3; -4 ] in
  let r1 = M.solve ~soft f in
  (match r1.M.verdict with
  | M.Optimum b -> check Alcotest.int "cost 2" 2 b.M.cost
  | _ -> Alcotest.fail "optimum expected");
  check Alcotest.int "two cores" 2 r1.M.lower_bound;
  certify f r1;
  let r2 = M.solve ~soft f in
  check Alcotest.int "deterministic sat_calls" r1.M.stats.M.sat_calls
    r2.M.stats.M.sat_calls;
  check Alcotest.int "deterministic clauses_encoded" r1.M.stats.M.clauses_encoded
    r2.M.stats.M.clauses_encoded

(* The chaos drill: an armed "maxsat.core" failpoint corrupts the
   first reported core; the engine must detect the impossible literal
   and raise Corrupt_core — and Preserving must contain that as an
   engine failure, never a wrong optimum. *)
let test_corrupt_core_contained () =
  Ec_util.Fault.reset ();
  Ec_util.Fault.arm ~times:1 "maxsat.core" Ec_util.Fault.Corrupt_model;
  Fun.protect ~finally:Ec_util.Fault.reset (fun () ->
      let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
      Alcotest.(check bool) "corrupted core raises" true
        (try
           ignore (M.solve ~soft:[ -1; -2 ] f);
           false
         with M.Corrupt_core _ -> true);
      Alcotest.(check int) "the drill fired" 1 (Ec_util.Fault.fired ()));
  (* same drill through Preserving.resolve: degraded, not wrong *)
  Ec_util.Fault.arm ~times:1 "maxsat.core" Ec_util.Fault.Corrupt_model;
  Fun.protect ~finally:Ec_util.Fault.reset (fun () ->
      let f = F.of_lists ~num_vars:2 [ [ -1; -2 ] ] in
      let reference = A.of_list 2 [ (1, true); (2, true) ] in
      let r =
        Ec_core.Preserving.resolve
          ~engine:(Ec_core.Preserving.Sat_maxsat M.default_options) f ~reference
      in
      check Alcotest.bool "not claimed optimal" false r.Ec_core.Preserving.optimal;
      (* the reference breaks the formula, so the engine runs *)
      Alcotest.(check int) "the drill reached the engine" 1 (Ec_util.Fault.fired ());
      match r.Ec_core.Preserving.reason with
      | Ec_util.Budget.Engine_failure ("maxsat", _) -> ()
      | _ -> Alcotest.fail "expected a contained maxsat engine failure")

(* check_maxsat is a real wall: a forged optimum (cost claimed below
   what the model achieves) must be rejected. *)
let test_certify_rejects_forged () =
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let r = M.solve ~soft:[ -1; -2 ] f in
  match r.M.verdict with
  | M.Optimum b ->
    let forged = { r with M.verdict = M.Optimum { b with M.cost = 0 }; lower_bound = 0 } in
    (match Ec_core.Certify.check_maxsat f forged with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "forged optimum slipped through check_maxsat")
  | _ -> Alcotest.fail "optimum expected"

(* ---- engine shootout on Table 3 trials ---- *)

(* Core-guided MaxSAT against the exact ILP objective (the optimum
   reference) and the repeated-ILP baseline, which probes the same
   objective as decision ILPs and re-encodes the whole model per
   probe.  Two trials per exact-tier instance at scale 0.25 (the
   smallest size where the re-encoding gap reaches 5x), with a heavier
   change script than Table 3's (±8 vars, ±14 clauses) so that trials
   break enough old values to cost something.  Work-only budgets make
   every total reproducible. *)
let test_shootout_vs_repeated_ilp () =
  let module P = Ec_harness.Protocol in
  let module Pres = Ec_core.Preserving in
  let config =
    { P.default_config with
      scale = 0.25;
      trials = 2;
      budget = Ec_util.Budget.create ~nodes:5_000_000 () }
  in
  let satisfiable f =
    let options =
      { Ec_sat.Cdcl.default_options with
        budget = Ec_util.Budget.create ~conflicts:200_000 () }
    in
    match (Ec_sat.Cdcl.solve_response ~options f).Ec_sat.Cdcl.outcome with
    | Ec_sat.Outcome.Sat _ -> true
    | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> false
  in
  let trials =
    List.concat_map
      (fun (inst : Ec_instances.Registry.instance) ->
        match P.initial_solve config inst with
        | None | Some { P.certified = false; _ } ->
          Alcotest.failf "%s: no certified initial solution" inst.spec.name
        | Some { P.assignment = a0; _ } ->
          let rng = Ec_util.Rng.create (config.P.seed + 17) in
          List.init config.P.trials (fun _ ->
              let script =
                Ec_cnf.Change.preserving_ec_script ~satisfiable rng inst.formula
                  ~reference:a0 ~add_vars:8 ~del_vars:8 ~add_clauses:14 ~del_clauses:14
                  ~clause_width:3
              in
              let f' = Ec_cnf.Change.apply_script inst.formula script in
              let reference = A.extend a0 (F.num_vars f') in
              let resolve engine = Pres.resolve ~engine ~budget:config.P.budget f' ~reference in
              ( resolve (Pres.Sat_maxsat { M.default_options with budget = config.P.budget }),
                resolve (Pres.Ilp_objective (P.bnb_options config)),
                resolve (Pres.Ilp_iterative (P.bnb_options config)) )))
      (List.filter (fun i -> not (P.is_heuristic_tier i)) (P.instances config))
  in
  let total f = List.fold_left (fun acc t -> acc + f t) 0 trials in
  let enc_max = total (fun (m, _, _) -> m.Pres.work.Pres.clauses_encoded)
  and enc_iter = total (fun (_, _, i) -> i.Pres.work.Pres.clauses_encoded)
  and conf_max = total (fun (m, _, _) -> m.Pres.counters.Ec_util.Budget.spent_conflicts)
  and conf_iter = total (fun (_, _, i) -> i.Pres.counters.Ec_util.Budget.spent_conflicts) in
  let totals =
    Printf.sprintf
      "clauses encoded: maxsat %d, repeated ILP %d; conflicts: maxsat %d, repeated ILP %d"
      enc_max enc_iter conf_max conf_iter
  in
  check Alcotest.int "16 trials" 16 (List.length trials);
  check Alcotest.bool "every engine proves the same optimum" true
    (List.for_all
       (fun ((m : Pres.result), (o : Pres.result), (i : Pres.result)) ->
         m.optimal && o.optimal && i.optimal && m.preserved = o.preserved
         && o.preserved = i.preserved)
       trials);
  check Alcotest.bool ("at least 5x fewer clauses encoded — " ^ totals) true
    (enc_iter >= 5 * enc_max);
  check Alcotest.bool ("strictly fewer conflicts — " ^ totals) true (conf_max < conf_iter)

(* ---- properties ---- *)

let clause_gen max_vars =
  QCheck.Gen.(
    let* n = int_range 1 max_vars in
    let* w = int_range 1 (min 3 n) in
    let* vars = QCheck.Gen.shuffle_l (List.init n (fun i -> i + 1)) in
    let vars = List.filteri (fun i _ -> i < w) vars in
    let* signs = list_repeat w bool in
    return (n, List.map2 (fun v s -> if s then v else -v) vars signs))

let instance_gen =
  QCheck.Gen.(
    let* n = int_range 2 4 in
    let* m = int_range 1 8 in
    let* raw = list_repeat m (clause_gen n |> map snd) in
    let clauses = List.filter_map C.make_opt raw in
    (* a random soft polarity per variable, some vars unconstrained *)
    let* soft =
      List.init n (fun i -> i + 1)
      |> List.fold_left
           (fun acc v ->
             let* acc = acc in
             let* pick = int_range 0 2 in
             return (if pick = 0 then acc else if pick = 1 then v :: acc else -v :: acc))
           (return [])
    in
    return (F.create ~num_vars:n clauses, soft))

let prop_optimum_matches_brute =
  QCheck.Test.make ~name:"maxsat optimum = brute force, certified" ~count:120
    (QCheck.make instance_gen)
    (fun (f, soft) ->
      let r = M.solve ~soft f in
      (match Ec_core.Certify.check_maxsat f r with Ok () -> () | Error m -> QCheck.Test.fail_report m);
      match (brute_min_cost soft f, r.M.verdict) with
      | None, M.Hard_unsat -> true
      | Some best, M.Optimum b -> b.M.cost = best && r.M.lower_bound = best
      | _ -> false)

let tests =
  [ ( "sat.maxsat",
      [ Alcotest.test_case "simple optimum" `Quick test_optimum_simple;
        Alcotest.test_case "zero cost" `Quick test_zero_cost;
        Alcotest.test_case "hard unsat" `Quick test_hard_unsat;
        Alcotest.test_case "stopped on budget" `Quick test_stopped_budget;
        Alcotest.test_case "invalid soft" `Quick test_invalid_soft;
        Alcotest.test_case "multi-core deterministic" `Quick
          test_multi_core_deterministic;
        Alcotest.test_case "corrupt core contained" `Quick
          test_corrupt_core_contained;
        Alcotest.test_case "certify rejects forged" `Quick
          test_certify_rejects_forged;
        Alcotest.test_case "shootout vs repeated ILP" `Quick
          test_shootout_vs_repeated_ilp;
        qtest prop_optimum_matches_brute ] ) ]
