(* The unified engine-config plane (Ec_util.Config +
   Ec_core.Engine_config): the two round-trip laws, property-tested
   per engine over random option records; parse/apply error paths; and
   the determinism contract behind the benchmark matrix's digest
   keying — same digest, same bit-identical single-threaded result. *)

let qtest = QCheck_alcotest.to_alcotest

module C = Ec_util.Config
module EC = Ec_core.Engine_config

(* --- generators: random options per engine ----------------------- *)

(* Values stay inside each field's sane range but include the textual
   edge cases the canonical float rendering must survive (exact
   integers, many decimals). *)
let gen_cdcl =
  QCheck.Gen.(
    let* decay = oneofl [ 0.95; 0.85; 0.5; 0.999; 1.0 /. 3.0 ] in
    let* restart = int_range 1 10_000 in
    let* seed = int_range 0 max_int in
    return { Ec_sat.Cdcl.default_options with var_decay = decay; restart_base = restart; seed })

let gen_bnb =
  QCheck.Gen.(
    let* branching = oneofl [ Ec_ilpsolver.Bnb.First_unfixed; Ec_ilpsolver.Bnb.Most_constrained ] in
    let* lp = bool in
    let* depth = int_range 0 32 in
    let* greedy = bool in
    let* tie = oneof [ return None; map Option.some (int_range 0 1_000_000) ] in
    return
      { Ec_ilpsolver.Bnb.default_options with
        branching; use_lp_bounding = lp; lp_max_depth = depth; greedy_completion = greedy;
        tie_seed = tie })

let gen_heuristic =
  QCheck.Gen.(
    let* flips = int_range 1 1_000_000 in
    let* restarts = int_range 1 100 in
    let* noise = oneofl [ 0.0; 0.12; 0.5; 2.0 /. 7.0 ] in
    let* tenure = int_range 0 50 in
    let* seed = int_range 0 max_int in
    let* stop = bool in
    return
      { Ec_ilpsolver.Heuristic.default_options with
        max_flips = flips; max_restarts = restarts; noise; tabu_tenure = tenure; seed;
        stop_at_first_feasible = stop })

let gen_simplex =
  QCheck.Gen.(
    let* factor = int_range 0 1000 in
    return { Ec_simplex.Simplex.default_options with bland_factor = factor })

let gen_maxsat =
  QCheck.Gen.map (fun cdcl -> { Ec_sat.Maxsat.default_options with cdcl }) gen_cdcl

(* --- the two laws, once per engine -------------------------------- *)

(* Compare through [show]: options records contain budgets (functional
   values via cancel flags), so structural equality is not available —
   but the spec's canonical form covers exactly the tunables under
   test, and budgets are not touched by parse/of_args. *)
let roundtrip_tests name spec gen =
  let arb = QCheck.make ~print:(C.show spec) gen in
  [ qtest
      (QCheck.Test.make ~name:(name ^ ": parse (show c) = c") ~count:200 arb (fun c ->
           match C.parse spec (C.show spec c) with
           | Ok c' -> C.show spec c' = C.show spec c
           | Error _ -> false));
    qtest
      (QCheck.Test.make ~name:(name ^ ": of_args (to_args c) = c") ~count:200 arb (fun c ->
           match C.of_args spec (C.to_args spec c) with
           | Ok c' -> C.show spec c' = C.show spec c
           | Error _ -> false));
    qtest
      (QCheck.Test.make ~name:(name ^ ": digest is canonical") ~count:200 arb (fun c ->
           match C.parse spec (C.show spec c) with
           | Ok c' -> C.digest spec c' = C.digest spec c
           | Error _ -> false)) ]

let all_roundtrips =
  roundtrip_tests "cdcl" Ec_sat.Cdcl.config gen_cdcl
  @ roundtrip_tests "bnb" Ec_ilpsolver.Bnb.config gen_bnb
  @ roundtrip_tests "heuristic" Ec_ilpsolver.Heuristic.config gen_heuristic
  @ roundtrip_tests "simplex" Ec_simplex.Simplex.config gen_simplex
  @ roundtrip_tests "maxsat" Ec_sat.Maxsat.config gen_maxsat

(* --- Engine_config (the union) ------------------------------------ *)

let union_roundtrip () =
  List.iter
    (fun engine ->
      match EC.default engine with
      | Error e -> Alcotest.failf "default %s: %s" engine e
      | Ok t -> (
        Alcotest.(check string) (engine ^ " name") engine (EC.name t);
        match EC.parse (EC.show t) with
        | Error e -> Alcotest.failf "parse (show %s): %s" engine e
        | Ok t' ->
          Alcotest.(check string) (engine ^ " canonical") (EC.show t) (EC.show t');
          Alcotest.(check string) (engine ^ " digest") (EC.digest t) (EC.digest t')))
    EC.engines

let union_partial_parse () =
  (match EC.parse "bnb:branching=first-unfixed" with
  | Ok (EC.Bnb o) ->
    Alcotest.(check bool) "branching applied" true (o.Ec_ilpsolver.Bnb.branching = Ec_ilpsolver.Bnb.First_unfixed);
    Alcotest.(check int) "other fields defaulted" 4 o.Ec_ilpsolver.Bnb.lp_max_depth
  | Ok _ -> Alcotest.fail "wrong engine"
  | Error e -> Alcotest.failf "partial parse: %s" e);
  match EC.parse "cdcl" with
  | Ok (EC.Cdcl o) ->
    Alcotest.(check int) "bare engine name = defaults" 91 o.Ec_sat.Cdcl.seed
  | Ok _ | Error _ -> Alcotest.fail "bare engine name should parse to defaults"

(* naive substring check, good enough for error-message assertions *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let union_errors () =
  (match EC.parse "cplex" with
  | Error e ->
    Alcotest.(check bool) "unknown engine lists known ones" true
      (contains e "cdcl")
  | Ok _ -> Alcotest.fail "unknown engine accepted");
  (match EC.parse "cdcl:var_decay=verymuch" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed float accepted");
  (match EC.parse "cdcl:tabu_tenure=3" with
  | Error e ->
    Alcotest.(check bool) "unknown key error names known keys" true
      (contains e "var_decay")
  | Ok _ -> Alcotest.fail "foreign key accepted");
  match EC.default "cdcl" with
  | Error e -> Alcotest.failf "default cdcl: %s" e
  | Ok t -> (
    match EC.apply t "restart_base=" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "empty value accepted")

(* Every backend is a config-plane value: [of_config (to_config b)]
   gives back the same engine with the same canonical configuration. *)
let backends_on_config_plane () =
  List.iter
    (fun b ->
      let name = Ec_core.Backend.name b in
      let c = Ec_core.Backend.to_config b in
      match Ec_core.Backend.of_config c with
      | Error e -> Alcotest.failf "%s not on the config plane: %s" name e
      | Ok b' ->
        Alcotest.(check string) (name ^ ": same engine") name (Ec_core.Backend.name b');
        Alcotest.(check string)
          (name ^ ": same configuration")
          (EC.show c)
          (EC.show (Ec_core.Backend.to_config b')))
    Ec_core.Backend.[ cdcl; ilp_exact; ilp_heuristic; maxsat ]

let simplex_not_a_backend () =
  match Ec_core.Backend.of_config (Result.get_ok (EC.default "simplex")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "simplex accepted as a feasibility backend"

(* Same digest => bit-identical single-threaded results: solve one
   instance twice through configs built independently (one parsed,
   one constructed), check digests agree and outcomes + deterministic
   work counters are identical. *)
let determinism_same_digest () =
  let spec = Ec_instances.Registry.scale 0.1 (Ec_instances.Registry.find "jnh1") in
  let inst = Ec_instances.Registry.build spec in
  let c1 = Result.get_ok (EC.parse "cdcl:var_decay=0.85,restart_base=64,seed=7") in
  let c2 =
    EC.Cdcl { Ec_sat.Cdcl.default_options with var_decay = 0.85; restart_base = 64; seed = 7 }
  in
  Alcotest.(check string) "same digest" (EC.digest c1) (EC.digest c2);
  let solve c =
    let r =
      Ec_core.Backend.solve_response
        (Result.get_ok (Ec_core.Backend.of_config c))
        inst.Ec_instances.Registry.formula
    in
    ( (match r.Ec_core.Backend.outcome with
      | Ec_sat.Outcome.Sat a -> "sat:" ^ Ec_cnf.Assignment.to_string a
      | Ec_sat.Outcome.Unsat -> "unsat"
      | Ec_sat.Outcome.Unknown _ -> "unknown"),
      r.Ec_core.Backend.counters.Ec_util.Budget.spent_conflicts,
      r.Ec_core.Backend.counters.Ec_util.Budget.spent_nodes )
  in
  let o1, conf1, nodes1 = solve c1 in
  let o2, conf2, nodes2 = solve c2 in
  Alcotest.(check string) "bit-identical outcome" o1 o2;
  Alcotest.(check int) "identical conflicts" conf1 conf2;
  Alcotest.(check int) "identical decisions" nodes1 nodes2

let document_covers_engines () =
  let doc = EC.document () in
  List.iter
    (fun e ->
      Alcotest.(check bool) ("document mentions " ^ e) true
        (contains doc e))
    EC.engines

let tests =
  [ ( "config.roundtrip", all_roundtrips );
    ( "config.engine-union",
      [ Alcotest.test_case "show/parse/digest round-trip per engine" `Quick union_roundtrip;
        Alcotest.test_case "partial forms parse from defaults" `Quick union_partial_parse;
        Alcotest.test_case "error paths name the offender" `Quick union_errors;
        Alcotest.test_case "every backend round-trips through the config plane" `Quick
          backends_on_config_plane;
        Alcotest.test_case "simplex is not a feasibility backend" `Quick
          simplex_not_a_backend;
        Alcotest.test_case "same digest, bit-identical result" `Quick
          determinism_same_digest;
        Alcotest.test_case "document covers every engine" `Quick document_covers_engines ] ) ]
