(* CLI contract tests against the ecsat binary itself (built as a dune
   dependency of this suite; the test cwd is _build/default/test, so
   the executable sits at ../bin/ecsat.exe).

   The argument-validation convention under test: a structurally
   invalid invocation — here a non-positive --jobs, which would mean an
   empty domain pool — is rejected up front with a diagnostic on
   stderr and exit 2, the same code a malformed ECSAT_FAULTS plan
   produces.  Kept cheap: one unit-clause formula, a few spawns. *)

let exe = Filename.concat ".." (Filename.concat "bin" "ecsat.exe")

let with_cnf text k =
  let path = Filename.temp_file "ecsat_cli" ".cnf" in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> k path)

let with_tiny_cnf k = with_cnf "p cnf 1 1\n1 0\n" k

(* Run [exe args], returning (exit code, captured stderr). *)
let run_ecsat args =
  let err = Filename.temp_file "ecsat_cli" ".err" in
  let code = Sys.command (Printf.sprintf "%s %s >/dev/null 2>%s" exe args err) in
  let ic = open_in_bin err in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (code, text)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* tables takes no positional file; a bad --jobs must still fail
   before any instance is generated. *)
let test_tables_jobs_zero () =
  let code, err = run_ecsat "tables --table 2 --jobs 0" in
  Alcotest.(check int) "tables --jobs 0 exits 2" 2 code;
  Alcotest.(check bool) "diagnostic names --jobs" true (contains err "--jobs")

(* A rejected --scale leaves no output file behind. *)
let test_gen_scale_writes_nothing () =
  let out = Filename.temp_file "ecsat_cli" ".cnf" in
  Sys.remove out;
  let code, _ = run_ecsat (Printf.sprintf "gen par8-1-c --scale=-1 -o %s" out) in
  Alcotest.(check int) "exits 2" 2 code;
  Alcotest.(check bool) "no file written" false (Sys.file_exists out)

(* The change flags of [fast]/[preserve] and the [tables] flags follow
   the same convention: a bad value exits 2 with one stderr line naming
   the flag, before the initial solve or any instance generation — not
   an uncaught exception (exit 125), and not a silent exit 0. *)
let reject_all flag invocations () =
  List.iter
    (fun args ->
      let code, err = run_ecsat args in
      Alcotest.(check int) (args ^ " exits 2") 2 code;
      Alcotest.(check bool) (args ^ ": diagnostic names " ^ flag) true (contains err flag))
    invocations

let reject_change flag bad_args () =
  with_tiny_cnf (fun cnf ->
      reject_all flag
        (List.concat_map
           (fun sub -> List.map (fun a -> Printf.sprintf "%s %s %s" sub a cnf) bad_args)
           [ "fast"; "preserve" ])
        ())

(* The same up-front convention for the observability sinks: an
   unwritable --trace/--metrics path must exit 2 with a diagnostic
   before any solving, not raise at flush time. *)
let reject_sink sub flag () =
  with_tiny_cnf (fun cnf ->
      let code, err =
        run_ecsat
          (Printf.sprintf "%s %s /nonexistent-ecsat-dir/out.json %s" sub flag cnf)
      in
      Alcotest.(check int) (sub ^ " " ^ flag ^ " unwritable exits 2") 2 code;
      Alcotest.(check bool) ("diagnostic names " ^ flag) true (contains err flag))

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A change the initial solution satisfies is answered by that
   solution, before any encoding, and counted once. *)
let test_preserve_kept_all_metrics () =
  with_tiny_cnf (fun cnf ->
      let m = Filename.temp_file "ecsat_cli" ".metrics.json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove m)
        (fun () ->
          let code, _ =
            run_ecsat (Printf.sprintf "preserve --engine maxsat --add=1 --metrics %s %s" m cnf)
          in
          Alcotest.(check int) "kept-all preserve answers SAT" 10 code;
          Alcotest.(check bool) "the kept-all answer was counted" true
            (contains (read_file m) "\"preserving.already_satisfied\":1")))

let test_trace_metrics_happy_path () =
  with_tiny_cnf (fun cnf ->
      let tr = Filename.temp_file "ecsat_cli" ".trace.json" in
      let m = Filename.temp_file "ecsat_cli" ".metrics.json" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove tr;
          Sys.remove m)
        (fun () ->
          let code, _ =
            run_ecsat (Printf.sprintf "solve --trace %s --metrics %s %s" tr m cnf)
          in
          Alcotest.(check int) "traced solve still answers SAT" 10 code;
          Alcotest.(check bool) "trace file is a Chrome trace document" true
            (contains (read_file tr) "\"traceEvents\"");
          let mjson = read_file m in
          Alcotest.(check bool) "metrics snapshot has counters" true
            (contains mjson "\"counters\"");
          Alcotest.(check bool) "the solve was counted" true
            (contains mjson "\"solve.cdcl.calls\":1")))

(* ---- enable: exit 20 only for an unsatisfiable formula ---- *)

(* Run [exe args] with stdout captured: (exit code, stdout). *)
let run_ecsat_out args =
  let out = Filename.temp_file "ecsat_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code = Sys.command (Printf.sprintf "%s %s >%s 2>/dev/null" exe args out) in
      (code, read_file out))

(* A satisfiable formula without an enabled solution (the unit clause
   has no second literal to support it) is no verdict: exit 0,
   [s UNKNOWN], never the 20 of an unsatisfiable formula. *)
let enable_answers ?(flags = "") text ~code ~line () =
  with_cnf text (fun cnf ->
      let got, out = run_ecsat_out (Printf.sprintf "enable %s %s" flags cnf) in
      Alcotest.(check int) "exit code" code got;
      Alcotest.(check bool) ("prints " ^ line) true (contains out line))

let test_enable_generated_verify () =
  let cnf = Filename.temp_file "ecsat_cli" ".cnf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove cnf)
    (fun () ->
      let code, _ = run_ecsat (Printf.sprintf "gen par8-1-c --scale 0.4 -o %s" cnf) in
      Alcotest.(check int) "gen exits 0" 0 code;
      let code, out = run_ecsat_out ("enable --verify " ^ cnf) in
      Alcotest.(check int) "enabled solution found" 10 code;
      Alcotest.(check bool) "certified" true (contains out "c certified"))

(* A preserving search stopped by its budget answers with its
   incumbent: a model of f', so exit 10, but the stop is reported and
   the count is not printed as a proved optimum. *)
let test_preserve_stopped_incumbent () =
  let cnf = Filename.temp_file "ecsat_cli" ".cnf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove cnf)
    (fun () ->
      let code, _ = run_ecsat (Printf.sprintf "gen f600 -o %s" cnf) in
      Alcotest.(check int) "gen exits 0" 0 code;
      let code, out =
        run_ecsat_out (Printf.sprintf "preserve --engine ilp --add=1 --timeout 0.3 %s" cnf)
      in
      Alcotest.(check int) "the incumbent satisfies f'" 10 code;
      Alcotest.(check bool) "the stop is reported" true (contains out "c stopped: deadline");
      Alcotest.(check bool) "the count is an incumbent's" true (contains out "c incumbent preserves");
      Alcotest.(check bool) "no optimum claimed" false (contains out "c preserved"))

(* ---- serve: up-front endpoint/bounds validation (exit 2) ---- *)

let reject_serve args needle () =
  let code, err = run_ecsat ("serve " ^ args ^ " </dev/null") in
  Alcotest.(check int) ("serve " ^ args ^ " exits 2") 2 code;
  Alcotest.(check bool) ("diagnostic names " ^ needle) true (contains err needle)

(* End-to-end over the real binary and stdio: mixed ops in, one JSONL
   answer per request out, certified answers, clean drain (exit 0). *)
let test_serve_stdio_roundtrip () =
  let req = Filename.temp_file "ecsat_serve" ".jsonl" in
  let out = Filename.temp_file "ecsat_serve" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove req;
      Sys.remove out)
    (fun () ->
      let oc = open_out req in
      output_string oc
        ({|{"op":"create-session","session":"a","id":1,"clauses":[[1,2],[-1,2],[1,-2]]}|}
        ^ "\n" ^ {|{"op":"solve","session":"a","id":2}|} ^ "\n"
        ^ {|{"op":"pin","session":"a","id":3,"lits":[-2]}|} ^ "\n"
        ^ {|{"op":"solve","session":"a","id":4}|} ^ "\n"
        ^ {|{"op":"shutdown","id":5}|} ^ "\n");
      close_out oc;
      let code = Sys.command (Printf.sprintf "%s serve <%s >%s 2>/dev/null" exe req out) in
      Alcotest.(check int) "daemon drains to exit 0" 0 code;
      let text = read_file out in
      let lines =
        String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "one response per request" 5 (List.length lines);
      Alcotest.(check bool) "certified sat answer" true
        (contains text {|"status":"sat"|} && contains text {|"certified":true|});
      Alcotest.(check bool) "pinned re-solve flips to unsat" true
        (contains text {|"status":"unsat"|}))

let tests =
  [ ( "cli.jobs-validation",
      [ Alcotest.test_case "tables --jobs 0" `Quick test_tables_jobs_zero ] );
    ( "cli.flag-validation",
      [ Alcotest.test_case "--add malformed clause" `Quick
          (reject_change "--add" [ "--add=1,x,3"; "--add=1,0,3"; "--add=1,-1" ]);
        Alcotest.test_case "--eliminate out of range" `Quick
          (* the fixture has one variable *)
          (reject_change "--eliminate" [ "-e 0"; "-e 2" ]);
        Alcotest.test_case "tables --table out of range" `Quick
          (reject_all "--table" [ "tables --table 4"; "tables --table 0" ]);
        Alcotest.test_case "tables --trials below 1" `Quick
          (reject_all "--trials" [ "tables --table 2 --scale 0.05 --trials 0" ]);
        Alcotest.test_case "tables --scale not positive" `Quick
          (reject_all "--scale" [ "tables --table 2 --scale=-1"; "tables --table 2 --scale 0" ]);
        Alcotest.test_case "gen --scale not positive" `Quick
          (reject_all "--scale"
             [ "gen g250.15 --scale=-1"; "gen par8-1-c --scale=-1"; "gen par8-1-c --scale=0";
               "gen par8-1-c --scale=nan" ]);
        Alcotest.test_case "gen --scale rejected before writing" `Quick test_gen_scale_writes_nothing
      ] );
    ( "cli.observability",
      [ Alcotest.test_case "solve --trace unwritable" `Quick
          (reject_sink "solve" "--trace");
        Alcotest.test_case "solve --metrics unwritable" `Quick
          (reject_sink "solve" "--metrics");
        Alcotest.test_case "tables --trace unwritable" `Quick
          (fun () ->
            (* tables takes no positional file; validation must still
               fire before any instance is built *)
            let code, err =
              run_ecsat "tables --table 2 --trace /nonexistent-ecsat-dir/out.json"
            in
            Alcotest.(check int) "tables --trace unwritable exits 2" 2 code;
            Alcotest.(check bool) "diagnostic names --trace" true
              (contains err "--trace"));
        Alcotest.test_case "solve --trace/--metrics artifacts" `Quick
          test_trace_metrics_happy_path;
        Alcotest.test_case "preserve --metrics unwritable" `Quick
          (reject_sink "preserve" "--metrics");
        Alcotest.test_case "preserve kept-all --metrics" `Quick test_preserve_kept_all_metrics;
        Alcotest.test_case "preserve stopped incumbent" `Quick test_preserve_stopped_incumbent ] );
    ( "cli.enable",
      [ Alcotest.test_case "unit clause: no enabled solution" `Quick
          (enable_answers "p cnf 1 1\n1 0\n" ~code:0 ~line:"s UNKNOWN");
        Alcotest.test_case "forced literal: no enabled solution" `Quick
          (enable_answers "p cnf 2 2\n1 2 0\n-1 0\n" ~code:0 ~line:"s UNKNOWN");
        Alcotest.test_case "unsatisfiable formula" `Quick
          (enable_answers "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n" ~code:20
             ~line:"s UNSATISFIABLE");
        Alcotest.test_case "objective mode" `Quick
          (enable_answers ~flags:"--objective" "p cnf 1 1\n1 0\n" ~code:10
             ~line:"s SATISFIABLE");
        Alcotest.test_case "generated par8 --verify" `Quick test_enable_generated_verify ] );
    ( "cli.engine-validation",
      [ Alcotest.test_case "preserve --engine bogus" `Quick
          (fun () ->
            with_tiny_cnf (fun cnf ->
                let code, err = run_ecsat ("preserve --engine bogus " ^ cnf) in
                Alcotest.(check int) "preserve rejects an unknown engine" 2 code;
                Alcotest.(check bool) "diagnostic lists the choices" true
                  (contains err "maxsat")));
        Alcotest.test_case "tables --engine bogus" `Quick
          (fun () ->
            let code, err = run_ecsat "tables --table 3 --engine bogus" in
            Alcotest.(check int) "tables rejects an unknown engine" 2 code;
            Alcotest.(check bool) "diagnostic lists the choices" true
              (contains err "maxsat"));
        Alcotest.test_case "preserve --engine maxsat solves" `Quick
          (fun () ->
            with_tiny_cnf (fun cnf ->
                let code, _ = run_ecsat ("preserve --engine maxsat " ^ cnf) in
                Alcotest.(check int) "core-guided engine answers SAT" 10 code));
        Alcotest.test_case "preserve --engine ilp-iterative solves" `Quick
          (fun () ->
            with_tiny_cnf (fun cnf ->
                let code, _ = run_ecsat ("preserve --engine ilp-iterative " ^ cnf) in
                Alcotest.(check int) "iterative baseline answers SAT" 10 code)) ] );
    ( "cli.serve-validation",
      [ Alcotest.test_case "missing socket directory" `Quick
          (reject_serve "--socket /nonexistent-ecsat-dir/d.sock" "--socket");
        Alcotest.test_case "socket path is a regular file" `Quick
          (fun () ->
            let path = Filename.temp_file "ecsat_serve" ".notasock" in
            Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
                reject_serve ("--socket " ^ path) "not a socket" ()));
        Alcotest.test_case "port out of range" `Quick
          (reject_serve "--tcp 70000" "1..65535");
        Alcotest.test_case "socket and tcp exclusive" `Quick
          (reject_serve "--socket /tmp/a.sock --tcp 7777" "mutually exclusive");
        Alcotest.test_case "jobs" `Quick (reject_serve "--jobs 0" "--jobs");
        Alcotest.test_case "deadline" `Quick
          (reject_serve "--deadline-ms 0" "--deadline-ms");
        Alcotest.test_case "queue bound" `Quick
          (reject_serve "--queue-bound 0" "--queue-bound");
        Alcotest.test_case "drain timeout" `Quick
          (reject_serve "--drain-timeout=-1" "--drain-timeout");
        Alcotest.test_case "stdio roundtrip" `Quick test_serve_stdio_roundtrip ] )
  ]
