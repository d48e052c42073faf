(* The benchmark matrix: cell JSON round-trip, the append-only store,
   gate semantics (ok / work / wall, cores_online-aware skip), and
   every builtin scenario run twice end to end. *)

module M = Ec_harness.Matrix
module EC = Ec_core.Engine_config

let cell ?(commit = "c0") ?(digest = "d0") ?(scenario = "stream") ?(scale = 24)
    ?(cores = 1) ?(ok = true) ?(work = [ ("conflicts", 10); ("decisions", 100) ])
    ?(wall = 0.5) () =
  { M.commit; engine = "cdcl"; config = "cdcl:x=1"; digest; scenario; scale;
    cores_online = cores; ok; work; wall_s = wall }

let json_roundtrip () =
  let c =
    cell ~work:[ ("conflicts", 0); ("decisions", 12345); ("iterations", max_int) ] ()
  in
  match M.cell_of_json (M.cell_to_json c) with
  | Error e -> Alcotest.failf "round-trip: %s" e
  | Ok c' ->
    Alcotest.(check string) "re-encodes identically" (M.cell_to_json c) (M.cell_to_json c')

let json_rejects_garbage () =
  (match M.cell_of_json "{\"commit\": 3}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields accepted");
  match M.cell_of_json "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-JSON accepted"

let store_append_load () =
  let path = Filename.temp_file "matrix" ".jsonl" in
  Sys.remove path;
  (match M.load ~path with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "missing store should load as []");
  Alcotest.(check bool) "append 1" true (Result.is_ok (M.append ~path [ cell () ]));
  Alcotest.(check bool) "append 2" true
    (Result.is_ok (M.append ~path [ cell ~commit:"c1" (); cell ~commit:"c2" () ]));
  (match M.load ~path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok cells ->
    Alcotest.(check (list string)) "append-only, file order"
      [ "c0"; "c1"; "c2" ]
      (List.map (fun c -> c.M.commit) cells));
  (* a malformed line is an error naming the line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{broken\n";
  close_out oc;
  (match M.load ~path with
  | Error e -> Alcotest.(check bool) "names the line" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "malformed line accepted");
  Sys.remove path

let store_skips_stored_keys () =
  let path = Filename.temp_file "matrix" ".jsonl" in
  let cells = [ cell (); cell ~scenario:"tables" (); cell ~scale:48 () ] in
  let appended () =
    match M.append ~path cells with
    | Ok n -> n
    | Error e -> Alcotest.failf "append: %s" e
  in
  Alcotest.(check int) "first run stores every cell" 3 (appended ());
  Alcotest.(check int) "second run stores none" 0 (appended ());
  (* same key, different measurement: still a duplicate *)
  Alcotest.(check bool) "re-measured cell skipped" true
    (M.append ~path [ cell ~wall:9.0 (); cell ~commit:"c1" () ] = Ok 1);
  (match M.load ~path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok stored ->
    let keys =
      List.map (fun c -> (c.M.commit, c.M.digest, c.M.scenario, c.M.scale)) stored
    in
    Alcotest.(check int) "each key loaded once" 4 (List.length keys);
    Alcotest.(check int) "keys distinct" 4 (List.length (List.sort_uniq compare keys)));
  Sys.remove path

let unwritable_store () =
  match M.append ~path:"/nonexistent-dir/results.jsonl" [ cell () ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unwritable path accepted"

let gate_no_baseline_passes () =
  match M.gate ~baseline:[] [ cell () ] with
  | [ v ] -> Alcotest.(check bool) "vacuous pass" true (v.M.passed && v.M.baseline = None)
  | _ -> Alcotest.fail "one verdict expected"

let gate_not_ok_without_baseline_fails () =
  match M.gate ~baseline:[] [ cell ~ok:false () ] with
  | [ v ] ->
    Alcotest.(check bool) "a failed cell fails the gate on its first run" false v.M.passed
  | _ -> Alcotest.fail "one verdict expected"

let gate_picks_latest_other_commit () =
  let baseline =
    [ cell ~commit:"old" ~work:[ ("conflicts", 1) ] ();
      cell ~commit:"new" ~work:[ ("conflicts", 2) ] ();
      (* same commit as the current cell: never a baseline *)
      cell ~commit:"cur" ~work:[ ("conflicts", 3) ] () ]
  in
  match M.gate ~baseline [ cell ~commit:"cur" () ] with
  | [ { M.baseline = Some b; _ } ] -> Alcotest.(check string) "latest other commit" "new" b.M.commit
  | _ -> Alcotest.fail "baseline not found"

let gate_ok_regression_fails () =
  let baseline = [ cell ~commit:"base" ~ok:true () ] in
  match M.gate ~baseline [ cell ~commit:"cur" ~ok:false () ] with
  | [ v ] -> Alcotest.(check bool) "ok regression gated" false v.M.passed
  | _ -> Alcotest.fail "one verdict expected"

let gate_work_regression_fails () =
  let baseline = [ cell ~commit:"base" ~work:[ ("conflicts", 1000) ] () ] in
  let over = M.gate ~baseline [ cell ~commit:"cur" ~work:[ ("conflicts", 2000) ] () ] in
  (match over with
  | [ v ] -> Alcotest.(check bool) "x2 growth beyond 1.5 tolerance fails" false v.M.passed
  | _ -> Alcotest.fail "one verdict expected");
  let within = M.gate ~baseline [ cell ~commit:"cur" ~work:[ ("conflicts", 1400) ] () ] in
  match within with
  | [ v ] -> Alcotest.(check bool) "x1.4 growth passes" true v.M.passed
  | _ -> Alcotest.fail "one verdict expected"

let gate_wall_semantics () =
  let baseline = [ cell ~commit:"base" ~cores:2 ~wall:1.0 () ] in
  let slow = cell ~commit:"cur" ~cores:2 ~wall:10.0 () in
  (* gated when both cells saw the same cores_online > 1 *)
  (match M.gate ~baseline [ slow ] with
  | [ v ] -> Alcotest.(check bool) "wall regression gated" false v.M.passed
  | _ -> Alcotest.fail "one verdict expected");
  (* a 1-core host: passes with a note *)
  (match
     M.gate
       ~baseline:[ cell ~commit:"base" ~wall:1.0 () ]
       [ cell ~commit:"cur" ~wall:10.0 () ]
   with
  | [ v ] ->
    Alcotest.(check bool) "skip note" true
      (v.M.passed && List.exists (fun n -> String.length n > 0) v.M.notes)
  | _ -> Alcotest.fail "one verdict expected");
  (* differing cores_online: skipped *)
  match M.gate ~baseline [ { slow with M.cores_online = 8 } ] with
  | [ v ] -> Alcotest.(check bool) "cross-hardware wall skipped" true v.M.passed
  | _ -> Alcotest.fail "one verdict expected"

let run_cell_deterministic () =
  let scenario name =
    match List.find_opt (fun s -> M.scenario_name s = name) M.builtins with
    | Some s -> s
    | None -> Alcotest.failf "%s scenario missing" name
  in
  let stream = scenario "stream" in
  let engine = Result.get_ok (EC.default "cdcl") in
  let run () =
    match M.run_cell ~commit:"t" stream engine ~scale:20 with
    | Some c -> c
    | None -> Alcotest.fail "cdcl x stream should be supported"
  in
  let c1 = run () in
  Alcotest.(check bool) "scenario succeeds" true c1.M.ok;
  Alcotest.(check bool) "work counters present" true (List.mem_assoc "conflicts" c1.M.work);
  (* the determinism contract the store's keying relies on: every
     builtin scenario, twice, under each default config it pairs with *)
  let engines = List.map (fun s -> Result.get_ok (EC.parse s)) M.default_engines in
  List.iter
    (fun sc ->
      let paired =
        List.filter
          (fun engine ->
            match M.run_cell ~commit:"t" sc engine ~scale:16 with
            | None -> false
            | Some c1 ->
              let c2 = Option.get (M.run_cell ~commit:"t" sc engine ~scale:16) in
              Alcotest.(check (list (pair string int)))
                (Printf.sprintf "%s x %s deterministic" c1.M.scenario c1.M.config)
                c1.M.work c2.M.work;
              true)
          engines
      in
      Alcotest.(check bool)
        (M.scenario_name sc ^ " pairs with a default config")
        true (paired <> []))
    M.builtins;
  (* optimize pairs with the bnb configs only *)
  Alcotest.(check bool) "cdcl x optimize unsupported" true
    (M.run_cell ~commit:"t" (scenario "optimize") engine ~scale:20 = None)

let tests =
  [ ( "matrix",
      [ Alcotest.test_case "cell JSON round-trip" `Quick json_roundtrip;
        Alcotest.test_case "cell JSON rejects garbage" `Quick json_rejects_garbage;
        Alcotest.test_case "store append/load, malformed line" `Quick store_append_load;
        Alcotest.test_case "store keeps one cell per key" `Quick store_skips_stored_keys;
        Alcotest.test_case "unwritable store is an Error" `Quick unwritable_store;
        Alcotest.test_case "gate: no baseline passes" `Quick gate_no_baseline_passes;
        Alcotest.test_case "gate: not-ok cell fails without baseline" `Quick
          gate_not_ok_without_baseline_fails;
        Alcotest.test_case "gate: latest other-commit baseline" `Quick
          gate_picks_latest_other_commit;
        Alcotest.test_case "gate: ok regression fails" `Quick gate_ok_regression_fails;
        Alcotest.test_case "gate: work tolerance" `Quick gate_work_regression_fails;
        Alcotest.test_case "gate: wall gating and skips" `Quick gate_wall_semantics;
        Alcotest.test_case "run_cell: deterministic, engine pairing" `Quick
          run_cell_deterministic ] ) ]
