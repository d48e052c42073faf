(* Tests for the observability layer: Ec_util.Trace spans (nesting,
   cross-domain merge, the zero-cost disabled path, Chrome JSON) and
   Ec_util.Metrics (registry semantics, reconciliation against the
   Budget counters carried by solver responses, two-run determinism,
   and the no-behavior-change guarantee of tracing). *)

let check = Alcotest.check

module Trace = Ec_util.Trace
module Metrics = Ec_util.Metrics
module F = Ec_cnf.Formula
module B = Ec_core.Backend

(* Observability state is global and the rest of the binary's suites
   must keep running on the zero-cost disabled path, so every test
   leaves both recorders disarmed and empty. *)
let with_clean_slate f =
  let quiesce () =
    Trace.disable ();
    Trace.reset ();
    Metrics.disable ();
    Metrics.reset ()
  in
  quiesce ();
  Fun.protect ~finally:quiesce f

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* Small but not trivial: CDCL spends a few decisions on it, so the
   reconciliation tests compare nonzero numbers. *)
let fixture_formula =
  F.of_lists ~num_vars:6
    [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3 ]; [ 4; 5; 6 ]; [ -4; -5 ]; [ -6; 1 ];
      [ 2; -5; 6 ]; [ -3; 4 ] ]

(* ---- Trace ---- *)

let test_disabled_span_is_identity () =
  with_clean_slate (fun () ->
      let evaluated = ref false in
      let v =
        Trace.span "t"
          ~result_args:(fun _ ->
            evaluated := true;
            [])
          (fun () -> 41 + 1)
      in
      check Alcotest.int "value passes through" 42 v;
      check Alcotest.bool "result_args never evaluated while disabled" false
        !evaluated;
      check Alcotest.int "nothing buffered" 0 (List.length (Trace.events ())))

let test_span_nesting () =
  with_clean_slate (fun () ->
      Trace.enable ();
      let v = Trace.span "outer" (fun () -> Trace.span "inner" (fun () -> 7)) in
      check Alcotest.int "value" 7 v;
      let evs = Trace.events () in
      check Alcotest.int "two spans" 2 (List.length evs);
      let find n = List.find (fun e -> e.Trace.ev_name = n) evs in
      let outer = find "outer" and inner = find "inner" in
      check Alcotest.int "same track" outer.Trace.ev_tid inner.Trace.ev_tid;
      check Alcotest.bool "inner starts inside outer" true
        (inner.Trace.ev_ts_us >= outer.Trace.ev_ts_us);
      check Alcotest.bool "inner ends inside outer" true
        (inner.Trace.ev_ts_us +. inner.Trace.ev_dur_us
        <= outer.Trace.ev_ts_us +. outer.Trace.ev_dur_us))

let test_span_closes_on_exception () =
  with_clean_slate (fun () ->
      Trace.enable ();
      (try Trace.span "boom" (fun () -> failwith "kaboom")
       with Failure _ -> ());
      match Trace.events () with
      | [ ev ] ->
        check Alcotest.string "span name" "boom" ev.Trace.ev_name;
        check Alcotest.bool "annotated with the exception" true
          (match Trace.arg ev "raised" with
          | Some s -> contains s "kaboom"
          | None -> false)
      | evs -> Alcotest.failf "expected one span, got %d" (List.length evs))

let test_cross_domain_merge () =
  with_clean_slate (fun () ->
      Trace.enable ();
      Trace.span "main" (fun () -> ());
      let workers =
        List.init 2 (fun i ->
            Domain.spawn (fun () ->
                Trace.span (Printf.sprintf "worker-%d" i) (fun () -> ())))
      in
      List.iter Domain.join workers;
      (* The workers are dead; their buffers must still be in the
         flush because the registry holds them, not the domains. *)
      let evs = Trace.events () in
      check Alcotest.int "all three spans survive" 3 (List.length evs);
      let tids = List.sort_uniq compare (List.map (fun e -> e.Trace.ev_tid) evs) in
      check Alcotest.bool "at least two distinct tracks" true
        (List.length tids >= 2))

let test_chrome_json () =
  with_clean_slate (fun () ->
      Trace.enable ();
      Trace.span "solve \"quoted\"" ~args:[ ("k", "v") ] (fun () -> ());
      Trace.instant "marker";
      let json = Trace.to_chrome_json () in
      check Alcotest.bool "traceEvents array" true (contains json "\"traceEvents\":[");
      check Alcotest.bool "complete-event phase" true (contains json "\"ph\":\"X\"");
      check Alcotest.bool "instant phase" true (contains json "\"ph\":\"i\"");
      check Alcotest.bool "args rendered" true (contains json "\"k\":\"v\"");
      check Alcotest.bool "quotes escaped" true
        (contains json "solve \\\"quoted\\\""))

let test_rollup () =
  with_clean_slate (fun () ->
      Trace.enable ();
      Trace.span "a" (fun () -> ());
      Trace.span "a" (fun () -> ());
      Trace.span "b" (fun () -> ());
      let rows = Trace.rollup () in
      check Alcotest.int "two names" 2 (List.length rows);
      let row n = List.find (fun r -> r.Trace.roll_name = n) rows in
      check Alcotest.int "a counted twice" 2 (row "a").Trace.roll_count;
      check Alcotest.int "b counted once" 1 (row "b").Trace.roll_count;
      List.iter
        (fun r -> check Alcotest.bool "durations accumulate" true (r.Trace.roll_total_us >= 0.0))
        rows)

(* ---- Metrics ---- *)

let test_disabled_metrics_are_noops () =
  with_clean_slate (fun () ->
      let c = Metrics.counter "test.noop.count" in
      let g = Metrics.gauge "test.noop.depth" in
      let h = Metrics.histogram "test.noop.latency_s" in
      Metrics.incr c;
      Metrics.set g 5.0;
      Metrics.observe h 1.0;
      check Alcotest.int "counter untouched" 0 (Metrics.counter_value c);
      check (Alcotest.float 0.0) "gauge untouched" 0.0 (Metrics.gauge_value g))

let test_counter_gauge_histogram () =
  with_clean_slate (fun () ->
      Metrics.enable ();
      let c = Metrics.counter "test.live.count" in
      Metrics.incr c;
      Metrics.add c 4;
      check Alcotest.int "counter accumulates" 5 (Metrics.counter_value c);
      check Alcotest.int "interning returns the same cell" 5
        (Metrics.counter_value (Metrics.counter "test.live.count"));
      let g = Metrics.gauge "test.live.depth" in
      Metrics.set g 2.0;
      Metrics.set g 7.5;
      check (Alcotest.float 0.0) "gauge keeps the last write" 7.5
        (Metrics.gauge_value g);
      let h = Metrics.histogram "test.live.latency_s" in
      Metrics.observe h 0.5;
      Metrics.observe h 3.0;
      let snap =
        List.find_map
          (function
            | Metrics.Histogram_item ("test.live.latency_s", hs) -> Some hs
            | _ -> None)
          (Metrics.snapshot ())
      in
      match snap with
      | None -> Alcotest.fail "histogram missing from snapshot"
      | Some hs ->
        check Alcotest.int "sample count" 2 hs.Metrics.hs_count;
        check (Alcotest.float 1e-9) "sample sum" 3.5 hs.Metrics.hs_sum;
        check Alcotest.int "two distinct buckets" 2 (List.length hs.Metrics.hs_buckets))

let test_bucket_layout () =
  with_clean_slate (fun () ->
      List.iter
        (fun x ->
          let i = Metrics.bucket_index x in
          check Alcotest.bool "sample below its bucket's bound" true
            (x <= Metrics.bucket_le i);
          if i > 0 then
            check Alcotest.bool "sample above the previous bound" true
              (x > Metrics.bucket_le (i - 1)))
        [ 1e-9; 0.003; 0.5; 1.0; 7.0; 123456.0; 1e30 ];
      check (Alcotest.float 0.0) "last bucket absorbs overflow" infinity
        (Metrics.bucket_le (Metrics.bucket_count - 1)))

let test_kind_mismatch_rejected () =
  with_clean_slate (fun () ->
      ignore (Metrics.counter "test.kind.clash");
      match Metrics.gauge "test.kind.clash" with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "re-interning under another kind must raise")

let test_metrics_json () =
  with_clean_slate (fun () ->
      Metrics.enable ();
      Metrics.incr (Metrics.counter "test.json.count");
      let json = Metrics.to_json () in
      check Alcotest.bool "counters section" true (contains json "\"counters\"");
      check Alcotest.bool "gauges section" true (contains json "\"gauges\"");
      check Alcotest.bool "histograms section" true (contains json "\"histograms\"");
      check Alcotest.bool "value present" true
        (contains json "\"test.json.count\":1"))

(* ---- reconciliation with the solver's Budget counters ---- *)

let counter_value name = Metrics.counter_value (Metrics.counter name)

let test_solve_counters_match_response () =
  with_clean_slate (fun () ->
      Metrics.enable ();
      let r = B.solve_response B.cdcl fixture_formula in
      let c = r.B.counters in
      check Alcotest.int "one recorded call" 1 (counter_value "solve.cdcl.calls");
      check Alcotest.int "conflicts reconcile" c.Ec_util.Budget.spent_conflicts
        (counter_value "solve.cdcl.conflicts");
      check Alcotest.int "decisions reconcile" c.Ec_util.Budget.spent_nodes
        (counter_value "solve.cdcl.decisions");
      check Alcotest.bool "the solve actually decided something" true
        (c.Ec_util.Budget.spent_nodes > 0))

(* A Fast request whose change makes the formula unsatisfiable runs two
   solves: the cone, which is unsatisfiable, then the full re-solve
   that proves it.  The response carries their summed spend, and the
   per-engine metrics must add up to the same totals. *)
let test_fast_fallback_counters_reconcile () =
  with_clean_slate (fun () ->
      let init =
        match Ec_core.Flow.solve_initial fixture_formula with
        | Some i -> i
        | None -> Alcotest.fail "fixture must be satisfiable"
      in
      (* every phase pair of two fresh variables excluded *)
      let script =
        List.map
          (fun lits ->
            Ec_cnf.Change.Add_clause (Ec_cnf.Clause.make (List.map Ec_cnf.Lit.of_int lits)))
          [ [ 7; 8 ]; [ 7; -8 ]; [ -7; 8 ]; [ -7; -8 ] ]
      in
      Metrics.enable ();
      let r = Ec_core.Flow.apply_change_response ~strategy:Ec_core.Flow.Fast init script in
      check Alcotest.bool "proved unsatisfiable" true
        (r.Ec_core.Flow.result = None && r.Ec_core.Flow.reason = Ec_util.Budget.Completed);
      check Alcotest.int "the cone solve, then the full re-solve" 2
        (counter_value "solve.cdcl.calls");
      check Alcotest.int "one fallback" 1 (counter_value "flow.fast_fallback");
      let summed suffix =
        List.fold_left
          (fun acc item ->
            match item with
            | Metrics.Counter_item (n, v)
              when String.length n > 6
                   && String.sub n 0 6 = "solve."
                   && contains n ("." ^ suffix) ->
              acc + v
            | _ -> acc)
          0 (Metrics.snapshot ())
      in
      let c = r.Ec_core.Flow.counters in
      check Alcotest.int "conflicts sum across solves" c.Ec_util.Budget.spent_conflicts
        (summed "conflicts");
      check Alcotest.int "decisions sum across solves" c.Ec_util.Budget.spent_nodes
        (summed "decisions");
      check Alcotest.bool "the solves really conflicted" true
        (c.Ec_util.Budget.spent_conflicts > 0))

(* ---- determinism ---- *)

let counters_of_snapshot () =
  List.filter_map
    (function Metrics.Counter_item (n, v) -> Some (n, v) | _ -> None)
    (Metrics.snapshot ())

let render_outcome = function
  | Ec_sat.Outcome.Sat a -> "sat " ^ Ec_cnf.Dimacs.solution_to_string a
  | Ec_sat.Outcome.Unsat -> "unsat"
  | Ec_sat.Outcome.Unknown _ -> "unknown"

let test_two_runs_identical_counters () =
  with_clean_slate (fun () ->
      (* One sequential (jobs=1 equivalent) pipeline run, metered: a
         solve plus a fast-EC re-solve.  Counters exclude every
         timestamp-bearing value, so two identical runs must agree
         exactly. *)
      let run () =
        Metrics.reset ();
        Metrics.enable ();
        let r = B.solve_response B.cdcl fixture_formula in
        (match r.B.outcome with
        | Ec_sat.Outcome.Sat a ->
          let f' = F.add_clause fixture_formula (Ec_cnf.Clause.make [ Ec_cnf.Lit.of_int 6 ]) in
          ignore (Ec_core.Fast_ec.resolve ~backend:B.cdcl f' (Ec_cnf.Assignment.extend a 6))
        | _ -> ());
        let snap = counters_of_snapshot () in
        Metrics.disable ();
        (render_outcome r.B.outcome, snap)
      in
      let o1, s1 = run () in
      let o2, s2 = run () in
      check Alcotest.string "same answer" o1 o2;
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
        "identical metric counters across runs" s1 s2)

let test_tracing_does_not_change_answers () =
  with_clean_slate (fun () ->
      let untraced = render_outcome (B.solve_response B.cdcl fixture_formula).B.outcome in
      Trace.enable ();
      Metrics.enable ();
      let traced = render_outcome (B.solve_response B.cdcl fixture_formula).B.outcome in
      check Alcotest.string "bit-identical answer with recording armed" untraced
        traced;
      check Alcotest.bool "and the solve really was traced" true
        (List.exists (fun e -> e.Trace.ev_name = "backend.solve") (Trace.events ())))

let tests =
  [ ( "observability.trace",
      [ Alcotest.test_case "disabled span is identity" `Quick
          test_disabled_span_is_identity;
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "span closes on exception" `Quick
          test_span_closes_on_exception;
        Alcotest.test_case "cross-domain merge" `Quick test_cross_domain_merge;
        Alcotest.test_case "chrome json" `Quick test_chrome_json;
        Alcotest.test_case "rollup" `Quick test_rollup ] );
    ( "observability.metrics",
      [ Alcotest.test_case "disabled metrics are no-ops" `Quick
          test_disabled_metrics_are_noops;
        Alcotest.test_case "counter/gauge/histogram" `Quick
          test_counter_gauge_histogram;
        Alcotest.test_case "bucket layout" `Quick test_bucket_layout;
        Alcotest.test_case "kind mismatch rejected" `Quick
          test_kind_mismatch_rejected;
        Alcotest.test_case "metrics json" `Quick test_metrics_json ] );
    ( "observability.reconciliation",
      [ Alcotest.test_case "solve counters match response" `Quick
          test_solve_counters_match_response;
        Alcotest.test_case "fast fallback counters reconcile" `Quick
          test_fast_fallback_counters_reconcile;
        Alcotest.test_case "two runs, identical counters" `Quick
          test_two_runs_identical_counters;
        Alcotest.test_case "tracing changes no answers" `Quick
          test_tracing_does_not_change_answers ] )
  ]
