(* One benchmark run: set up, measure for the given seconds, check
   every answer after the window, print the metrics. *)

module J = Ec_util.Json

let now = Unix.gettimeofday

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  ecsat : string;  (* the daemon binary, for [serve] *)
  commit : string;
}

let workloads = [ "enable"; "fast"; "preserve"; "serve" ]

(* Set-up runs this often and reports its median, so one slow pass
   does not decide [setup_s]. *)
let setup_repeats = 3

(* Ten samples beyond p90. *)
let min_requests = 100

let out_dir = ".ecbench_out"

(* Digest of the library and CLI sources: names the code measured
   where no git metadata is at hand. *)
let source_digest () =
  let rec files dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then []
    else
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
             else [])
  in
  files "lib" @ files "bin"
  |> List.map (fun p -> p ^ Digest.file p)
  |> String.concat "" |> Digest.string |> Digest.to_hex

let print_conditions args ~extra ~timed ~cls ~p50 ~p90 =
  Report.print_conditions
    ([ ("commit", J.String args.commit);
      ("source_digest", J.String (source_digest ()));
      ("workload", J.String args.workload);
      ("seed", J.Int args.seed);
      ("seconds", J.Float args.seconds);
      ("trace", J.Bool args.trace);
      ("cores_online", J.Int (Domain.recommended_domain_count ()));
      ("timed_requests", J.Int timed);
      ("classes", Report.class_json cls);
      ("percentiles_in_one_class", J.Bool (Pct.holding ~p50 ~p90 cls <> None));
      ("gc", Report.gc_params ()) ]
    @ extra)

(* Prints the class table and the run conditions of the timed
   requests; returns (p50, p90). *)
let summarize ?(extra = []) args samples =
  let lat = List.map snd samples in
  let p50 = Pct.percentile lat 50 and p90 = Pct.percentile lat 90 in
  let cls = Pct.classes samples in
  Report.print_classes cls ~p50 ~p90;
  print_conditions args ~extra ~timed:(List.length samples) ~cls ~p50 ~p90;
  (p50, p90)

(* Failed checks over (index, output) pairs; prints the first few. *)
let count_failures check outs =
  List.fold_left
    (fun failed (i, o) ->
      match check i o with
      | Ok () -> failed
      | Error msg ->
        if failed < 5 then Printf.printf "FAILED request %d: %s\n" i msg;
        failed + 1)
    0 outs

let mean xs =
  match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Mean of the named count over the outputs that report it. *)
let mean_count outs name =
  mean (List.filter_map (fun (o : Pipeline.out) -> List.assoc_opt name o.counts) outs)

let pct part whole = 100.0 *. float_of_int part /. float_of_int (max 1 whole)

let per n x = x /. float_of_int (max 1 n)

let rollup_of roll name =
  Option.value (Hashtbl.find_opt roll name)
    ~default:{ Spans.calls = 0; total_s = 0.0; self_s = 0.0 }

(* Time in the named span, in ms per request over [n] requests. *)
let span_ms roll n name = per n (1000.0 *. (rollup_of roll name).Spans.total_s)

(* Mean time of one call of the named span, scaled (1000 = ms). *)
let per_call roll scale name =
  let r = rollup_of roll name in
  per r.Spans.calls (scale *. r.Spans.total_s)

(* Coverage: what the plain request spends outside every layer span,
   and what recording the spans added to the same requests. *)
let coverage spans ~root ~plain_ms ~traced_ms ~n =
  let attributed =
    List.fold_left
      (fun acc ((s : Spans.span), self) ->
        if s.Spans.name = root then acc +. (s.Spans.stop -. s.Spans.start -. self) else acc)
      0.0 (Spans.self_times spans)
  in
  [ Report.metric "flow.unattributed_ms" "ms" (plain_ms -. per n (1000.0 *. attributed));
    Report.metric "trace.overhead_pct" "%" (100.0 *. (traced_ms -. plain_ms) /. plain_ms) ]

let write_spans args spans =
  Spans.write
    (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" args.workload args.seed))
    spans

(* [setup_repeats] set-up passes ([pass last] returns its result and
   its time); the last result and the median time, raw and divided by
   the host factor right after each pass. *)
let timed_setups pass =
  let runs =
    List.init setup_repeats (fun i ->
        let v, t = pass (i = setup_repeats - 1) in
        (v, t, t /. Hostspeed.factor_now ()))
  in
  let v, _, _ = List.nth runs (setup_repeats - 1) in
  (v, Pct.median (List.map (fun (_, t, _) -> t) runs), Pct.median (List.map (fun (_, _, c) -> c) runs))

(* Divides each timed request — (class, ms, reference ms) in issue
   order — by its local host factor, then prints the class table, the
   raw values and the run conditions.  Returns (p50, p90, corrected ms,
   median host factor). *)
let summarize_corrected args ~window ~raw_setup timed =
  let factors = Hostspeed.factors (List.map (fun (_, _, r) -> r) timed) in
  let raw = List.map (fun (_, ms, _) -> ms) timed in
  let corrected = List.map2 (fun (_, ms, _) f -> ms /. f) timed factors in
  let h = Pct.median factors in
  let raw_p50 = Pct.percentile raw 50 and raw_p90 = Pct.percentile raw 90 in
  let raw_rps = float_of_int (List.length timed) /. window in
  let p50, p90 =
    summarize args
      ~extra:
        [ ("host_factor", J.Float h);
          ( "raw",
            J.Obj
              [ ("req_p50_ms", J.Float raw_p50);
                ("req_p90_ms", J.Float raw_p90);
                ("throughput_rps", J.Float raw_rps);
                ("setup_s", J.Float raw_setup) ] ) ]
      (List.map2 (fun (c, _, _) x -> (c, x)) timed corrected)
  in
  Printf.printf "host factor %.3f (raw p50 %.3f ms, p90 %.3f ms, %.2f req/s, set-up %.3f s)\n" h
    raw_p50 raw_p90 raw_rps raw_setup;
  (p50, p90, corrected, h)

(* ---- in-process workloads ---- *)

let inproc_measured args =
  let ctx, raw_setup, setup_s =
    timed_setups (fun _ ->
        Ec_util.Stopwatch.time (fun () -> Inproc.setup ~workload:args.workload ~seed:args.seed ()))
  in
  let reqs, window = Inproc.closed_loop ~seconds:args.seconds ~min_requests ctx.Inproc.request in
  let failed =
    count_failures ctx.Inproc.check (List.mapi (fun i (r : Inproc.timed) -> (i, r.out)) reqs)
  in
  let p50, p90, corrected, _ =
    summarize_corrected args ~window ~raw_setup
      (List.map (fun (r : Inproc.timed) -> (r.out.Pipeline.cls, r.ms, r.ref_ms)) reqs)
  in
  let n = List.length reqs in
  ( n,
    failed,
    Report.end_to_end ~p50 ~p90
      ~throughput:(float_of_int n /. (List.fold_left ( +. ) 0.0 corrected /. 1000.0))
      ~setup:setup_s )

let gc_metrics ~minor_words ~major_words ~minor_gcs ~major_gcs n =
  [ Report.metric "gc.minor_words_per_req" "words" (per n minor_words);
    Report.metric "gc.major_words_per_req" "words" (per n major_words);
    Report.metric "gc.minor_gcs_per_req" "count" (per n minor_gcs);
    Report.metric "gc.major_gcs_per_req" "count" (per n major_gcs) ]

(* Each request twice in a row, plain (the baseline and the GC deltas)
   then with a span around every layer call, so both passes see the
   same host speed; until [seconds] have passed. *)
let inproc_traced args =
  let setup_sp = Spans.create ~on:true in
  let ctx = Inproc.setup ~sp:setup_sp ~workload:args.workload ~seed:args.seed () in
  let sp = Spans.create ~on:true in
  let gc = Array.make 4 0.0 in
  let traced = ref [] and plain_ms = ref [] in
  let pair i =
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let o = ctx.Inproc.request i in
    plain_ms := (o.Pipeline.cls, (now () -. t0) *. 1000.0) :: !plain_ms;
    let g1 = Gc.quick_stat () in
    gc.(0) <- gc.(0) +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    gc.(1) <- gc.(1) +. (g1.Gc.major_words -. g0.Gc.major_words);
    gc.(2) <- gc.(2) +. float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections);
    gc.(3) <- gc.(3) +. float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
    Spans.set_request sp (i + 1);
    let t0 = now () in
    let t = Spans.record sp "request" (fun () -> ctx.Inproc.traced sp i) in
    traced := (t, (now () -. t0) *. 1000.0) :: !traced;
    o
  in
  let plain, _ = Inproc.closed_loop ~seconds:args.seconds ~min_requests pair in
  let traced = List.rev !traced and plain_ms = List.rev !plain_ms in
  let n = List.length plain in
  let os = List.map fst traced in
  let failed =
    count_failures ctx.Inproc.check (List.mapi (fun i (r : Inproc.timed) -> (i, r.out)) plain)
    + count_failures ctx.Inproc.check (List.mapi (fun i o -> (i, o)) os)
  in
  let spans = Spans.spans sp in
  write_spans args (Spans.spans setup_sp @ spans);
  let roll = Spans.rollup spans in
  (* The enabling and B&B rows: the requests themselves on [enable],
     the set-up's initial solution on [fast] and [preserve]. *)
  let en_roll, en_n, en_outs =
    match ctx.Inproc.initial with
    | None -> (roll, n, os)
    | Some o -> (Spans.rollup (Spans.spans setup_sp), 1, [ o ])
  in
  let bnb_ms = span_ms en_roll en_n "bnb.solve" in
  let bnb_nodes = mean_count en_outs "bnb.nodes" in
  let cone = List.filter (fun (o : Pipeline.out) -> o.cls = "cone") os in
  let count_of cls = List.length (List.filter (fun (o : Pipeline.out) -> o.cls = cls) os) in
  let measured =
    gc_metrics ~minor_words:gc.(0) ~major_words:gc.(1) ~minor_gcs:gc.(2) ~major_gcs:gc.(3) n
    @ [ Report.metric "enabling.build_ms" "ms" (span_ms en_roll en_n "enabling.build");
        Report.metric "enabling.rows" "count" (mean_count en_outs "enabling.rows");
        Report.metric "enabling.vars" "count" (mean_count en_outs "enabling.vars");
        Report.metric "bnb.solve_ms" "ms" bnb_ms;
        Report.metric "bnb.nodes" "count" bnb_nodes;
        Report.metric "bnb.us_per_node" "us"
          (if bnb_nodes > 0.0 then 1000.0 *. bnb_ms /. bnb_nodes else 0.0);
        Report.metric "change.apply_ms" "ms" (span_ms roll n "change.apply");
        Report.metric "fast_ec.simplify_ms" "ms" (span_ms roll n "fast_ec.simplify");
        Report.metric "fast_ec.cone_vars" "count" (mean_count cone "fast_ec.cone_vars");
        Report.metric "fast_ec.cone_clauses" "count" (mean_count cone "fast_ec.cone_clauses");
        Report.metric "cdcl.solve_ms" "ms" (span_ms roll n "cdcl.solve");
        Report.metric "cdcl.conflicts" "count" (mean_count cone "cdcl.conflicts");
        Report.metric "cdcl.decisions" "count" (mean_count cone "cdcl.decisions");
        Report.metric "minimize.recover_dc_ms" "ms" (span_ms roll n "minimize.recover_dc");
        Report.metric "preserving.resolve_ms" "ms" (span_ms roll n "preserving.resolve");
        Report.metric "preserving.sat_calls" "count" (mean_count os "preserving.sat_calls");
        Report.metric "preserving.cores" "count" (mean_count os "preserving.cores");
        Report.metric "preserving.clauses_encoded" "count"
          (mean_count os "preserving.clauses_encoded");
        Report.metric "preserving.conflicts" "count" (mean_count os "preserving.conflicts");
        Report.metric "certify.check_ms" "ms" (span_ms roll n "certify.check");
        Report.metric "certify.calls_per_req" "count"
          (per n (float_of_int (rollup_of roll "certify.check").Spans.calls)) ]
    @ (if args.workload = "fast" then
         [ Report.metric "fast_ec.already_satisfied_pct" "%"
             (pct (count_of "already_satisfied") n);
           Report.metric "fast_ec.fallback_pct" "%" (pct (count_of "fallback") n) ]
       else [])
    @ coverage spans ~root:"request" ~n
        ~plain_ms:(mean (List.map snd plain_ms))
        ~traced_ms:(mean (List.map snd traced))
  in
  ignore (summarize args plain_ms);
  (2 * n, failed, Report.complete measured)

(* ---- serve ---- *)

(* The daemon's environment: ours (which holds no OCAMLRUNPARAM, see
   main.ml), plus the runtime's exit report of GC totals when traced. *)
let serve_env ~gc_report =
  let env = Array.to_list (Unix.environment ()) in
  Array.of_list (if gc_report then "OCAMLRUNPARAM=v=0x400" :: env else env)

(* Sessions generated per lane: room for 100 steps per second per
   lane, over three times what the daemon sustains today. *)
let serve_cycles args = 2 + int_of_float (args.seconds *. 100.0 /. float_of_int Gen.cycle_steps)

let stderr_path args = Filename.concat out_dir (Printf.sprintf "serve-%d.stderr" args.seed)

let serve_measured args =
  let sessions = Gen.serve_lanes ~seed:args.seed ~cycles:(serve_cycles args) in
  let d, raw_setup, setup_s =
    timed_setups (fun last ->
        let d, t =
          Serve.start ~ecsat:args.ecsat ~env:(serve_env ~gc_report:false)
            ~stderr_path:(stderr_path args) sessions
        in
        if not last then Serve.guarded d Serve.stop;
        (d, t))
  in
  let results, window =
    Serve.guarded d (fun d ->
        let r = Serve.closed_loop d sessions ~seconds:args.seconds ~min_requests in
        Serve.stop d;
        r)
  in
  let failed = Serve.check sessions results in
  let p50, p90, _, h =
    summarize_corrected args ~window ~raw_setup
      (List.map
         (fun (r : Serve.step_result) -> (Gen.kind_name r.kind, r.latency_ms, r.ref_ms))
         results)
  in
  let n = List.length results in
  (n, failed, Report.end_to_end ~p50 ~p90 ~throughput:(h *. float_of_int n /. window) ~setup:setup_s)

(* The daemon for half the window (step latency, GC totals from its
   exit report), then the same steps replayed in-process through
   [Session] and [Wire], plain and with spans in lockstep. *)
let serve_traced args =
  let sessions = Gen.serve_lanes ~seed:args.seed ~cycles:(serve_cycles args) in
  let d, _ =
    Serve.start ~ecsat:args.ecsat ~env:(serve_env ~gc_report:true)
      ~stderr_path:(stderr_path args) sessions
  in
  let results, _ =
    Serve.guarded d (fun d ->
        let r = Serve.closed_loop d sessions ~seconds:(args.seconds /. 2.0) ~min_requests in
        Serve.stop d;
        r)
  in
  let gc = Serve.gc_report (stderr_path args) in
  let n = List.length results in
  let steps =
    Array.mapi
      (fun k _ -> List.length (List.filter (fun (r : Serve.step_result) -> r.lane = k) results))
      sessions
  in
  let plain, traced, conflicts = Serve.replay sessions steps in
  let failed =
    Serve.check sessions results
    + Serve.check sessions plain.Serve.replayed
    + Serve.check sessions traced.Serve.replayed
  in
  let spans = Spans.spans traced.Serve.sp in
  write_spans args spans;
  let roll = Spans.rollup spans in
  let plain_ms = mean plain.Serve.step_ms in
  let daemon_ms = mean (List.map (fun (r : Serve.step_result) -> r.latency_ms) results) in
  let measured =
    gc_metrics ~minor_words:(gc "minor_words") ~major_words:(gc "major_words")
      ~minor_gcs:(gc "minor_collections") ~major_gcs:(gc "major_collections") n
    @ List.map
        (fun k ->
          let k = Gen.kind_name k in
          Report.metric ("session.solve_ms." ^ k) "ms" (per_call roll 1000.0 ("session.solve." ^ k)))
        [ Gen.Add; Gen.Remove; Gen.Pin_sat; Gen.Pin_unsat ]
    @ [ Report.metric "session.delta_ms" "ms" (per_call roll 1000.0 "session.delta");
        Report.metric "session.conflicts_per_solve" "count" (mean conflicts);
        Report.metric "wire.parse_us" "us" (per_call roll 1e6 "wire.parse");
        Report.metric "wire.render_us" "us" (per_call roll 1e6 "wire.render");
        Report.metric "server.overhead_ms" "ms" (daemon_ms -. plain_ms) ]
    @ coverage spans ~root:"step" ~n ~plain_ms ~traced_ms:(mean traced.Serve.step_ms)
  in
  ignore
    (summarize args
       (List.map (fun (r : Serve.step_result) -> (Gen.kind_name r.kind, r.latency_ms)) results));
  (3 * n, failed, Report.complete measured)

let run args =
  if not (List.mem args.workload workloads) then begin
    Printf.eprintf "ecbench: unknown workload %S (one of %s)\n" args.workload
      (String.concat ", " workloads);
    exit 2
  end;
  if args.seconds <= 0.0 then begin
    prerr_endline "ecbench: --seconds must be positive";
    exit 2
  end;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let attempted, failed, metrics =
    match (args.workload, args.trace) with
    | "serve", false -> serve_measured args
    | "serve", true -> serve_traced args
    | _, false -> inproc_measured args
    | _, true -> inproc_traced args
  in
  Report.print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  if failed > 0 then exit 1
