(* What a run prints: human-readable lines, one JSON line of run
   conditions, and as the very last line the result object. *)

module J = Ec_util.Json

type metric = { mname : string; value : float; unit_ : string }

let metric mname unit_ value = { mname; value; unit_ }

(* Every per-layer metric, with its unit, in the order BENCHMARK.json
   lists them.  A traced run reports all of them; a layer its workload
   does not reach reads 0. *)
let per_layer =
  [ ("gc.minor_words_per_req", "words");
    ("gc.major_words_per_req", "words");
    ("gc.minor_gcs_per_req", "count");
    ("gc.major_gcs_per_req", "count");
    ("enabling.build_ms", "ms");
    ("enabling.rows", "count");
    ("enabling.vars", "count");
    ("bnb.solve_ms", "ms");
    ("bnb.nodes", "count");
    ("bnb.us_per_node", "us");
    ("change.apply_ms", "ms");
    ("fast_ec.simplify_ms", "ms");
    ("fast_ec.cone_vars", "count");
    ("fast_ec.cone_clauses", "count");
    ("fast_ec.already_satisfied_pct", "%");
    ("fast_ec.fallback_pct", "%");
    ("cdcl.solve_ms", "ms");
    ("cdcl.conflicts", "count");
    ("cdcl.decisions", "count");
    ("minimize.recover_dc_ms", "ms");
    ("preserving.resolve_ms", "ms");
    ("preserving.sat_calls", "count");
    ("preserving.cores", "count");
    ("preserving.clauses_encoded", "count");
    ("preserving.conflicts", "count");
    ("certify.check_ms", "ms");
    ("certify.calls_per_req", "count");
    ("session.solve_ms.add", "ms");
    ("session.solve_ms.remove", "ms");
    ("session.solve_ms.pin_sat", "ms");
    ("session.solve_ms.pin_unsat", "ms");
    ("session.delta_ms", "ms");
    ("session.conflicts_per_solve", "count");
    ("wire.parse_us", "us");
    ("wire.render_us", "us");
    ("server.overhead_ms", "ms");
    ("flow.unattributed_ms", "ms");
    ("trace.overhead_pct", "%") ]

(* The full per-layer list, measured values filled in. *)
let complete measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.mname = name) measured with
      | Some m -> m
      | None -> metric name unit_ 0.0)
    per_layer

let end_to_end ~p50 ~p90 ~throughput ~setup =
  [ metric "req_p50_ms" "ms" p50;
    metric "req_p90_ms" "ms" p90;
    metric "throughput_rps" "1/s" throughput;
    metric "setup_s" "s" setup ]

let print_classes (cls : Pct.cls list) ~p50 ~p90 =
  Printf.printf "%-18s %6s %7s %9s %9s %9s %9s\n" "class" "share" "count" "min_ms" "p50_ms"
    "p90_ms" "max_ms";
  List.iter
    (fun (c : Pct.cls) ->
      Printf.printf "%-18s %5.1f%% %7d %9.3f %9.3f %9.3f %9.3f\n" c.name (100.0 *. c.share)
        c.count c.lo c.p50 c.p90 c.hi)
    cls;
  match Pct.holding ~p50 ~p90 cls with
  | Some c -> Printf.printf "req_p50_ms and req_p90_ms both fall inside class %s\n" c.name
  | None -> Printf.printf "WARNING: req_p50_ms and req_p90_ms do not fall inside one class\n"

let class_json (cls : Pct.cls list) =
  J.List
    (List.map
       (fun (c : Pct.cls) ->
         J.Obj
           [ ("class", J.String c.name);
             ("count", J.Int c.count);
             ("share", J.Float c.share);
             ("min_ms", J.Float c.lo);
             ("p50_ms", J.Float c.p50);
             ("p90_ms", J.Float c.p90);
             ("max_ms", J.Float c.hi) ])
       cls)

let gc_params () =
  let g = Gc.get () in
  J.Obj
    [ ("minor_heap_size", J.Int g.Gc.minor_heap_size);
      ("space_overhead", J.Int g.Gc.space_overhead);
      ("max_overhead", J.Int g.Gc.max_overhead);
      ("stack_limit", J.Int g.Gc.stack_limit);
      ("custom_major_ratio", J.Int g.Gc.custom_major_ratio);
      ("custom_minor_ratio", J.Int g.Gc.custom_minor_ratio);
      ("custom_minor_max_size", J.Int g.Gc.custom_minor_max_size) ]

let print_conditions fields =
  print_endline (J.to_string (J.Obj [ ("conditions", J.Obj fields) ]))

(* The last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun m -> Printf.printf "%-32s %14.6f %s\n" m.mname m.value m.unit_) metrics;
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun m ->
                     (m.mname, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit_) ]))
                   metrics) ) ]))
