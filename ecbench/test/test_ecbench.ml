(* Tests of the benchmark's own code: percentile selection, per-class
   ranges, span self time, and the serve step generator's promise that
   every step gets the status it was built for. *)

open Ecbench

let floats = Alcotest.(list (float 1e-9))

let test_nearest_rank () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (Pct.nearest_rank a 50);
  Alcotest.(check (float 0.0)) "p90 of 1..100 is the 90th" 90.0 (Pct.nearest_rank a 90);
  Alcotest.(check (float 0.0)) "p100 is the max" 100.0 (Pct.nearest_rank a 100);
  let b = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p90 of 10" 9.0 (Pct.nearest_rank b 90);
  Alcotest.(check (float 0.0)) "p91 of 10 rounds up" 10.0 (Pct.nearest_rank b 91);
  Alcotest.(check (float 0.0)) "single sample" 7.0 (Pct.nearest_rank [| 7.0 |] 1);
  Alcotest.(check (float 0.0)) "unsorted input" 2.0 (Pct.percentile [ 3.0; 1.0; 2.0 ] 50);
  Alcotest.check_raises "no samples" (Invalid_argument "Pct.nearest_rank: no samples")
    (fun () -> ignore (Pct.nearest_rank [||] 50));
  Alcotest.check_raises "percent 0" (Invalid_argument "Pct.nearest_rank: percent outside 1..100")
    (fun () -> ignore (Pct.nearest_rank a 0))

let test_classes () =
  (* 20 cheap requests near 1 ms, 80 near 10 ms. *)
  let samples =
    List.init 100 (fun i ->
        if i mod 5 = 0 then ("cheap", 1.0 +. (float_of_int i /. 1000.0))
        else ("cone", 10.0 +. float_of_int i))
  in
  let cls = Pct.classes samples in
  Alcotest.(check (list string)) "first-appearance order" [ "cheap"; "cone" ]
    (List.map (fun (c : Pct.cls) -> c.name) cls);
  let cheap = List.hd cls and cone = List.nth cls 1 in
  Alcotest.(check int) "cheap count" 20 cheap.count;
  Alcotest.(check (float 1e-9)) "cone share" 0.8 cone.share;
  Alcotest.(check floats) "cone range" [ 11.0; 109.0 ] [ cone.lo; cone.hi ];
  Alcotest.(check (float 1e-9)) "cone p50" (Pct.percentile (List.filter_map (fun (c, v) -> if c = "cone" then Some v else None) samples) 50) cone.p50;
  let p50 = Pct.percentile (List.map snd samples) 50
  and p90 = Pct.percentile (List.map snd samples) 90 in
  Alcotest.(check (option string)) "both percentiles in the cone class" (Some "cone")
    (Option.map (fun (c : Pct.cls) -> c.name) (Pct.holding ~p50 ~p90 cls));
  (* 60% cheap: the median falls in the cheap class and p90 in the
     other, so no single class holds both. *)
  let cliff = List.init 100 (fun i -> if i < 60 then ("cheap", 1.0) else ("cone", 10.0)) in
  let p50 = Pct.percentile (List.map snd cliff) 50
  and p90 = Pct.percentile (List.map snd cliff) 90 in
  Alcotest.(check bool) "cliff between classes" true
    (Pct.holding ~p50 ~p90 (Pct.classes cliff) = None)

(* The host factor is the median of the reference units within ten
   positions, over the nominal time: one slow outlier does not move it,
   a sustained slow stretch does. *)
let test_host_factors () =
  let nominal = Hostspeed.nominal_ms in
  let samples =
    List.init 60 (fun i ->
        if i = 5 then 10.0 *. nominal else if i < 30 then nominal else 2.0 *. nominal)
  in
  let f = Array.of_list (Hostspeed.factors samples) in
  Alcotest.(check int) "one factor per sample" 60 (Array.length f);
  Alcotest.(check (float 1e-9)) "outlier ignored" 1.0 f.(5);
  Alcotest.(check (float 1e-9)) "fast stretch" 1.0 f.(15);
  Alcotest.(check (float 1e-9)) "slow stretch" 2.0 f.(50);
  Alcotest.(check bool) "the reference unit takes time" true (Hostspeed.sample () > 0.0)

let span id parent start stop =
  { Spans.id; req = 1; parent; name = Printf.sprintf "s%d" id; start; stop }

let test_self_time () =
  (* Parent 0..10 with children 1..3 and 2..5 (overlapping: 4 covered)
     and 8..12 (clipped to 2); the grandchild 1.5..2 lies inside its
     parent and does not count against the root. *)
  let spans =
    [ span 1 0 0.0 10.0; span 2 1 1.0 3.0; span 3 1 2.0 5.0; span 4 1 8.0 12.0;
      span 5 2 1.5 2.0 ]
  in
  let self = List.map (fun ((s : Spans.span), t) -> (s.id, t)) (Spans.self_times spans) in
  Alcotest.(check (float 1e-9)) "root self" 4.0 (List.assoc 1 self);
  Alcotest.(check (float 1e-9)) "child with a grandchild" 1.5 (List.assoc 2 self);
  Alcotest.(check (float 1e-9)) "leaf" 3.0 (List.assoc 3 self);
  let roll = Spans.rollup spans in
  Alcotest.(check int) "one call per name" 1 (Hashtbl.find roll "s1").Spans.calls

let test_record_nesting () =
  let sp = Spans.create ~on:true in
  Spans.set_request sp 7;
  let v = Spans.record sp "outer" (fun () -> Spans.record sp "inner" (fun () -> 42)) in
  Alcotest.(check int) "value passes through" 42 v;
  (match Spans.spans sp with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner closes first" "inner" inner.Spans.name;
    Alcotest.(check int) "inner's parent" outer.Spans.id inner.Spans.parent;
    Alcotest.(check int) "outer is a root" 0 outer.Spans.parent;
    Alcotest.(check int) "request id" 7 inner.Spans.req
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l));
  let off = Spans.create ~on:false in
  ignore (Spans.record off "x" (fun () -> ()));
  Alcotest.(check int) "disarmed records nothing" 0 (List.length (Spans.spans off))

(* One lane of two small planted sessions of [Gen.cycle_steps] steps. *)
let small_lane seed =
  [| Array.init 2 (fun c ->
         let formula, planted =
           Ec_instances.Random_ksat.generate ~seed:(seed + c) ~num_vars:200 ~num_clauses:850 ()
         in
         let nvars = Ec_cnf.Formula.num_vars formula in
         let planted = Gen.planted_bools nvars planted in
         { Gen.sname = "p";
           formula;
           planted;
           steps =
             Gen.serve_steps (Ec_util.Rng.create (seed + c)) ~planted ~nvars formula
               Gen.cycle_steps }) |]

(* Every generated serve step answers as built, on small planted
   instances replayed in-process through Session and Wire, across a
   session change; [check] also re-verifies each model against the
   benchmark's own mirror. *)
let prop_serve_steps =
  QCheck.Test.make ~name:"serve steps get the status they were built for" ~count:10
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let lanes = small_lane seed in
      let n = Gen.cycle_steps + 20 in
      let plain, traced, conflicts = Serve.replay lanes [| n |] in
      Serve.check lanes plain.Serve.replayed = 0
      && Serve.check lanes traced.Serve.replayed = 0
      && List.length plain.Serve.replayed = n
      && List.length conflicts = n)

(* The check is not vacuous: a wrong status or a broken model fails. *)
let test_serve_check_rejects () =
  let lanes = small_lane 5 in
  let plain, _, _ = Serve.replay lanes [| 10 |] in
  let tamper f =
    List.map
      (fun (r : Serve.step_result) ->
        if r.idx = 0 then
          { r with
            answers =
              List.map
                (fun (role, a) -> if role = Serve.Solve then (role, f a) else (role, a))
                r.answers }
        else r)
      plain.Serve.replayed
  in
  Alcotest.(check int) "untouched" 0 (Serve.check lanes plain.Serve.replayed);
  Alcotest.(check int) "wrong status" 1
    (Serve.check lanes (tamper (fun a -> { a with Serve.status = "unknown" })));
  Alcotest.(check int) "empty model" 1
    (Serve.check lanes (tamper (fun a -> { a with Serve.model = [] })))

(* The metric names and units the runs print are the ones
   BENCHMARK.json declares. *)
let test_declared_metrics () =
  let module J = Ec_util.Json in
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc = match J.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  let declared key =
    match Option.bind (J.member key doc) J.to_list_opt with
    | None -> Alcotest.failf "BENCHMARK.json has no %s list" key
    | Some ms ->
      List.map
        (fun m ->
          let field k = Option.get (Option.bind (J.member k m) J.to_string_opt) in
          (field "name", field "unit"))
        ms
  in
  let pairs ms = List.map (fun (m : Report.metric) -> (m.mname, m.unit_)) ms in
  Alcotest.(check (list (pair string string))) "end-to-end" (declared "end_to_end")
    (pairs (Report.end_to_end ~p50:1.0 ~p90:1.0 ~throughput:1.0 ~setup:1.0));
  Alcotest.(check (list (pair string string))) "per-layer" (declared "per_layer") Report.per_layer

let () =
  Alcotest.run "ecbench"
    [ ( "pct",
        [ Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "classes" `Quick test_classes ] );
      ("report", [ Alcotest.test_case "declared metrics" `Quick test_declared_metrics ]);
      ("hostspeed", [ Alcotest.test_case "local factors" `Quick test_host_factors ]);
      ( "spans",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "record nesting" `Quick test_record_nesting ] );
      ( "serve",
        [ QCheck_alcotest.to_alcotest prop_serve_steps;
          Alcotest.test_case "check rejects" `Quick test_serve_check_rejects ] ) ]
