(* Tests for lib/server: the JSON layer, the wire protocol, the
   watchdog, per-session fault containment, and the daemon itself run
   in-process over pipes — including the chaos-containment contract:
   with a fault plan pinned to one session, the other session's
   response stream is byte-identical to a fault-free run. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module J = Ec_util.Json
module Wire = Ec_server.Wire
module Session = Ec_server.Session
module Watchdog = Ec_server.Watchdog
module Server = Ec_server.Server
module F = Ec_cnf.Formula
module C = Ec_cnf.Clause
module O = Ec_sat.Outcome
module Budget = Ec_util.Budget
module Fault = Ec_util.Fault

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* ---- json ---- *)

let parse_ok s =
  match J.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let parse_err s =
  match J.parse s with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  | Error msg -> msg

let test_json_roundtrip () =
  let doc = {|{"op":"solve","id":17,"nested":[[1,-2],[3]],"f":1.5,"b":true,"n":null,"s":"a\"b"}|} in
  let v = parse_ok doc in
  check Alcotest.string "compact roundtrip" doc (J.to_string v);
  check Alcotest.(option int) "member id" (Some 17)
    (Option.bind (J.member "id" v) J.to_int_opt);
  check Alcotest.(option string) "member s" (Some "a\"b")
    (Option.bind (J.member "s" v) J.to_string_opt)

let test_json_escapes () =
  (match parse_ok {|"Aé\n\t\\"|} with
  | J.String s -> check Alcotest.string "escapes" "A\xc3\xa9\n\t\\" s
  | _ -> Alcotest.fail "string expected");
  (* surrogate pair: U+1F600 *)
  match parse_ok {|"😀"|} with
  | J.String s -> check Alcotest.string "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "string expected"

let test_json_hostile () =
  check Alcotest.bool "depth bomb rejected" true
    (contains (parse_err (String.make 200 '[')) "deep");
  check Alcotest.bool "trailing garbage rejected" true
    (contains (parse_err "{} {}") "trailing");
  check Alcotest.bool "unterminated string rejected" true
    (contains (parse_err {|{"a|}) "unterminated");
  check Alcotest.bool "lone surrogate rejected" true
    (parse_err {|"\ud83d"|} <> "");
  check Alcotest.bool "bare word rejected" true (parse_err "flase" <> "")

(* ---- wire ---- *)

let test_wire_rejections () =
  let err line =
    match Wire.parse_request line with
    | Error r -> r.Wire.rej_msg
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" line
  in
  (match Wire.parse_request {|{"op":"frobnicate","session":"x","id":2}|} with
  | Error r ->
    check Alcotest.bool "rejects echo the id" true (r.Wire.rej_id = J.Int 2);
    check Alcotest.(option string) "rejects echo the session" (Some "x")
      r.Wire.rej_session
  | Ok _ -> Alcotest.fail "unknown op parsed");
  check Alcotest.bool "unknown op lists the menu" true
    (contains (err {|{"op":"frobnicate"}|}) "create-session|solve");
  check Alcotest.bool "zero literal rejected" true
    (contains (err {|{"op":"pin","session":"s","lits":[1,0]}|}) "literal 0");
  check Alcotest.bool "non-positive var rejected" true
    (contains (err {|{"op":"remove-vars","session":"s","vars":[-3]}|}) "non-positive");
  check Alcotest.bool "session required" true
    (contains (err {|{"op":"solve"}|}) "session");
  check Alcotest.bool "deadline >= 1" true
    (contains (err {|{"op":"solve","session":"s","deadline_ms":0}|}) "deadline_ms");
  check Alcotest.bool "non-object rejected" true (contains (err "[1,2]") "object")

let test_wire_render_fixed_order () =
  check Alcotest.string "error shape"
    {|{"id":7,"session":"s","status":"error","error":"boom"}|}
    (Wire.error ~session:"s" ~id:(J.Int 7) "boom");
  check Alcotest.string "overloaded shape"
    {|{"id":null,"status":"overloaded","retry_after_ms":50}|}
    (Wire.overloaded ~id:J.Null ~retry_after_ms:50 ());
  check Alcotest.string "unknown shape"
    {|{"id":1,"status":"unknown","reason":"deadline","degraded":true}|}
    (Wire.unknown ~id:(J.Int 1) ~reason:"deadline" ~degraded:true ())

(* ---- watchdog ---- *)

let test_watchdog_fires () =
  let wd = Watchdog.create ~tick_s:0.002 () in
  let budget = Budget.create ~cancel:(Atomic.make false) () in
  let tok = Watchdog.guard wd ~deadline_s:0.01 budget in
  Unix.sleepf 0.08;
  check Alcotest.bool "fired" true (Watchdog.fired tok);
  check Alcotest.bool "budget cancelled" true (Budget.cancelled budget);
  Watchdog.shutdown wd

let test_watchdog_disarm () =
  let wd = Watchdog.create ~tick_s:0.002 () in
  let budget = Budget.create ~cancel:(Atomic.make false) () in
  let tok = Watchdog.guard wd ~deadline_s:0.01 budget in
  Watchdog.disarm wd tok;
  Unix.sleepf 0.05;
  check Alcotest.bool "not fired" false (Watchdog.fired tok);
  check Alcotest.bool "budget untouched" false (Budget.cancelled budget);
  Watchdog.shutdown wd

let test_watchdog_cancel_all () =
  let wd = Watchdog.create ~tick_s:0.002 () in
  let b1 = Budget.create ~cancel:(Atomic.make false) () in
  let b2 = Budget.create ~cancel:(Atomic.make false) () in
  let _t1 = Watchdog.guard wd ~deadline_s:60.0 b1 in
  let _t2 = Watchdog.guard wd ~deadline_s:60.0 b2 in
  Watchdog.cancel_all wd;
  check Alcotest.bool "b1 cancelled" true (Budget.cancelled b1);
  check Alcotest.bool "b2 cancelled" true (Budget.cancelled b2);
  Watchdog.shutdown wd

(* ---- session containment ---- *)

let unlimited () = Budget.create ()

let test_session_contains_one_crash () =
  Fault.reset ();
  Fault.arm ~times:1 "serve.session:crashy" Ec_util.Fault.Raise_exn;
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let s = Session.create ~name:"crashy" (F.of_lists ~num_vars:2 [ [ 1; 2 ] ]) in
  let r = Session.solve ~budget:(unlimited ()) s in
  check Alcotest.bool "answered sat" true (O.is_sat r.Session.outcome);
  check Alcotest.bool "certified" true r.Session.certified;
  check Alcotest.bool "needed the one retry" true r.Session.retried;
  check Alcotest.bool "not degraded" false r.Session.degraded

let test_session_degrades_after_two_crashes () =
  Fault.reset ();
  Fault.arm ~times:2 "serve.session:crashy" Ec_util.Fault.Raise_exn;
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let s = Session.create ~name:"crashy" (F.of_lists ~num_vars:2 [ [ 1; 2 ] ]) in
  let r = Session.solve ~budget:(unlimited ()) s in
  (match r.Session.outcome with
  | O.Unknown (Budget.Engine_failure (site, detail)) ->
    check Alcotest.string "failure site" "serve.session" site;
    check Alcotest.bool "both failures reported" true (contains detail "retry:")
  | o -> Alcotest.failf "expected degraded unknown, got %s" (O.to_string o));
  check Alcotest.bool "degraded" true r.Session.degraded;
  check Alcotest.bool "session recovers on the next solve" true
    (O.is_sat (Session.solve ~budget:(unlimited ()) s).Session.outcome)

let test_session_validation () =
  let s = Session.create ~name:"v" (F.of_lists ~num_vars:3 [ [ 1; 2 ] ]) in
  (match Session.remove_vars s [ 9 ] with
  | Error msg -> check Alcotest.bool "remove out of range" true (contains msg "9")
  | Ok () -> Alcotest.fail "remove_vars accepted an out-of-range var");
  (match Session.pin s [ -7 ] with
  | Error msg -> check Alcotest.bool "pin out of range" true (contains msg "-7")
  | Ok () -> Alcotest.fail "pin accepted an out-of-range literal");
  check Alcotest.int "rejections do not bump the revision" 0 (Session.revision s)

(* Interleaved add-clauses / remove-vars under session-style reuse must
   stay sound: at every step the session's verdict (through the warm
   incremental engine, with rebuilds on removal) equals a from-scratch
   CDCL solve of the mirrored formula. *)
let prop_session_add_remove_equals_scratch =
  let gen =
    QCheck.Gen.(
      let* n = int_range 3 7 in
      let clause =
        let* w = int_range 1 3 in
        let* vars = QCheck.Gen.shuffle_l (List.init n (fun i -> i + 1)) in
        let vars = List.filteri (fun i _ -> i < w) vars in
        let* signs = list_repeat (List.length vars) bool in
        return (List.map2 (fun v s -> if s then v else -v) vars signs)
      in
      let op =
        let* remove = int_range 0 3 in
        if remove = 0 then
          let* v = int_range 1 n in
          return (`Remove v)
        else
          let* c = clause in
          return (`Add c)
      in
      let* initial = list_repeat 3 clause in
      let* steps = int_range 1 8 in
      let* ops = list_repeat steps op in
      return (n, initial, ops))
  in
  QCheck.Test.make ~name:"server session add/remove = scratch at every step"
    ~count:80 (QCheck.make gen)
    (fun (n, initial, ops) ->
      let f0 = F.of_lists ~num_vars:n initial in
      let s = Session.create ~name:"prop" f0 in
      let mirror = ref f0 in
      let sound () =
        let r = Session.solve ~budget:(unlimited ()) s in
        match (r.Session.outcome, (Ec_sat.Cdcl.solve_response !mirror).outcome) with
        | O.Sat _, O.Sat _ -> r.Session.certified
        | O.Unsat, O.Unsat -> true
        | _, _ -> false
      in
      sound ()
      && List.for_all
           (fun op ->
             (match op with
             | `Add lits -> (
               match C.make_opt lits with
               | None -> ()
               | Some c ->
                 mirror := F.add_clause !mirror c;
                 Session.add_clauses s [ c ])
             | `Remove v -> (
               match Session.remove_vars s [ v ] with
               | Ok () -> mirror := F.eliminate_var !mirror v
               | Error msg -> Alcotest.failf "in-range remove refused: %s" msg));
             sound ())
           ops)

(* ---- the daemon in-process, over pipes ---- *)

let default_test_config () =
  { (Server.default_config ()) with
    jobs = 2;
    drain_deadline_s = 10.0;
    watchdog_grace_s = 0.005 }

(* Run one daemon over a pipe pair: feed it [script] (one request per
   element), collect exactly [expect] response lines, join, and return
   (exit code, responses in arrival order). *)
let run_server ?(cfg = default_test_config ()) ~expect script =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let daemon = Domain.spawn (fun () -> Server.run cfg req_r resp_w) in
  let payload = String.concat "\n" script ^ "\n" in
  let payload = Bytes.of_string payload in
  let rec write_all off len =
    if len > 0 then begin
      let n = Unix.write req_w payload off len in
      write_all (off + n) (len - n)
    end
  in
  write_all 0 (Bytes.length payload);
  Unix.close req_w;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let count_newlines s = String.fold_left (fun k c -> if c = '\n' then k + 1 else k) 0 s in
  let deadline = Unix.gettimeofday () +. 30.0 in
  while
    count_newlines (Buffer.contents buf) < expect
    && Unix.gettimeofday () < deadline
  do
    match Unix.select [ resp_r ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ ->
      let n = Unix.read resp_r chunk 0 (Bytes.length chunk) in
      Buffer.add_subbytes buf chunk 0 n
  done;
  let code = Domain.join daemon in
  Unix.close req_r;
  Unix.close resp_r;
  Unix.close resp_w;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  (code, lines)

let find_by_id lines id =
  let needle = Printf.sprintf "\"id\":%d" id in
  match List.find_opt (fun l -> contains l needle) lines with
  | Some l -> l
  | None -> Alcotest.failf "no response with id %d in:\n%s" id (String.concat "\n" lines)

let test_daemon_smoke () =
  let code, lines =
    run_server ~expect:8
      [ {|{"op":"create-session","session":"a","id":1,"clauses":[[1,2],[-1,2],[1,-2]]}|};
        {|{"op":"solve","session":"a","id":2}|};
        {|{"op":"pin","session":"a","id":3,"lits":[-2]}|};
        {|{"op":"solve","session":"a","id":4}|};
        {|{"op":"query","session":"a","id":5}|};
        {|{"op":"health","id":6}|};
        {|{"op":"close","session":"a","id":7}|};
        {|{"op":"shutdown","id":8}|} ]
  in
  check Alcotest.int "clean drain exits 0" 0 code;
  check Alcotest.int "one response per request" 8 (List.length lines);
  check Alcotest.bool "solve is certified sat" true
    (contains (find_by_id lines 2) {|"status":"sat"|}
    && contains (find_by_id lines 2) {|"certified":true|});
  check Alcotest.bool "pinned solve is unsat" true
    (contains (find_by_id lines 4) {|"status":"unsat"|});
  check Alcotest.bool "query reports the pin" true
    (contains (find_by_id lines 5) {|"pins":1|});
  check Alcotest.bool "health reports the session" true
    (contains (find_by_id lines 6) {|"sessions":1|})

let test_daemon_bad_input () =
  let code, lines =
    run_server ~expect:4
      [ {|{"op":"solve","session":"ghost","id":1}|};
        {|{"bogus|};
        {|{"op":"frobnicate","session":"x","id":2}|};
        {|{"op":"shutdown","id":3}|} ]
  in
  check Alcotest.int "bad input never kills the daemon" 0 code;
  check Alcotest.bool "unknown session is an error" true
    (contains (find_by_id lines 1) {|"status":"error"|}
    && contains (find_by_id lines 1) "unknown session");
  check Alcotest.bool "parse failure is structured" true
    (List.exists (fun l -> contains l {|"error":"parse:|}) lines);
  check Alcotest.bool "unknown op is structured" true
    (contains (find_by_id lines 2) "unknown op")

let test_daemon_oversized_line () =
  let cfg = { (default_test_config ()) with max_line_bytes = 128 } in
  let big =
    Printf.sprintf {|{"op":"create-session","session":"big","id":1,"dimacs":"%s"}|}
      (String.make 4096 'x')
  in
  let code, lines = run_server ~cfg ~expect:3
      [ big; {|{"op":"health","id":2}|}; {|{"op":"shutdown","id":3}|} ]
  in
  check Alcotest.int "daemon survives" 0 code;
  check Alcotest.bool "oversized line rejected" true
    (List.exists (fun l -> contains l "max line size") lines);
  check Alcotest.bool "daemon still answers afterwards" true
    (contains (find_by_id lines 2) {|"status":"ok"|})

let test_daemon_backpressure () =
  Fault.reset ();
  (* every slow-session solve stalls 50ms, so the burst piles up *)
  Fault.arm "serve.session:slow" Ec_util.Fault.Delay;
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let cfg =
    { (default_test_config ()) with jobs = 1; session_queue_bound = 1 }
  in
  let code, lines =
    run_server ~cfg ~expect:7
      [ {|{"op":"create-session","session":"slow","id":1,"clauses":[[1,2]]}|};
        {|{"op":"solve","session":"slow","id":2}|};
        {|{"op":"solve","session":"slow","id":3}|};
        {|{"op":"solve","session":"slow","id":4}|};
        {|{"op":"solve","session":"slow","id":5}|};
        {|{"op":"solve","session":"slow","id":6}|};
        {|{"op":"shutdown","id":7}|} ]
  in
  check Alcotest.int "drains cleanly under overload" 0 code;
  check Alcotest.int "every request answered" 7 (List.length lines);
  let overloaded =
    List.filter (fun l -> contains l {|"status":"overloaded"|}) lines
  in
  check Alcotest.bool "burst beyond the bound sheds load" true
    (List.length overloaded >= 1);
  check Alcotest.bool "shed responses carry a retry hint" true
    (List.for_all (fun l -> contains l "retry_after_ms") overloaded)

(* The chaos containment contract (the PR's acceptance test): a fault
   plan pinned to one session degrades only that session; the healthy
   session's response stream is byte-identical to a fault-free run of
   the same script, answers certified; both runs drain to exit 0. *)
let chaos_script =
  [ {|{"op":"create-session","session":"sick","id":1,"clauses":[[1,2],[-1,2]]}|};
    {|{"op":"create-session","session":"healthy","id":2,"clauses":[[3,4],[-3,4],[3,-4]]}|};
    {|{"op":"solve","session":"sick","id":3,"deadline_ms":25}|};
    {|{"op":"solve","session":"healthy","id":4}|};
    {|{"op":"pin","session":"healthy","id":5,"lits":[4]}|};
    {|{"op":"solve","session":"healthy","id":6}|};
    {|{"op":"solve","session":"sick","id":7,"deadline_ms":25}|};
    {|{"op":"shutdown","id":8}|} ]

let healthy_stream lines =
  List.filter (fun l -> contains l {|"session":"healthy"|}) lines

let run_chaos_variant action =
  Fault.reset ();
  (match action with
  | Some a -> Fault.arm "serve.session:sick" a
  | None -> ());
  Fun.protect ~finally:Fault.reset @@ fun () ->
  run_server ~expect:(List.length chaos_script) chaos_script

let test_daemon_chaos_containment action degraded_marker () =
  let clean_code, clean_lines = run_chaos_variant None in
  let chaos_code, chaos_lines = run_chaos_variant (Some action) in
  check Alcotest.int "clean run exits 0" 0 clean_code;
  check Alcotest.int "chaos run drains to exit 0" 0 chaos_code;
  check Alcotest.int "chaos run answers every request"
    (List.length chaos_script) (List.length chaos_lines);
  check
    Alcotest.(list string)
    "healthy session byte-identical under faults" (healthy_stream clean_lines)
    (healthy_stream chaos_lines);
  check Alcotest.bool "healthy answers are certified" true
    (List.exists
       (fun l -> contains l {|"status":"sat"|} && contains l {|"certified":true|})
       (healthy_stream chaos_lines));
  let sick =
    List.filter (fun l -> contains l {|"session":"sick"|}) chaos_lines
  in
  if not (List.exists (fun l -> contains l degraded_marker) sick) then
    List.iter (fun l -> Printf.eprintf "SICK: %s\n%!" l) sick;
  check Alcotest.bool
    (Printf.sprintf "faulted session shows %s" degraded_marker)
    true
    (List.exists (fun l -> contains l degraded_marker) sick)

let tests =
  [ ( "server.json",
      [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "escapes" `Quick test_json_escapes;
        Alcotest.test_case "hostile input" `Quick test_json_hostile ] );
    ( "server.wire",
      [ Alcotest.test_case "rejections" `Quick test_wire_rejections;
        Alcotest.test_case "fixed field order" `Quick test_wire_render_fixed_order ] );
    ( "server.watchdog",
      [ Alcotest.test_case "fires past deadline" `Quick test_watchdog_fires;
        Alcotest.test_case "disarm" `Quick test_watchdog_disarm;
        Alcotest.test_case "cancel_all" `Quick test_watchdog_cancel_all ] );
    ( "server.session",
      [ Alcotest.test_case "one crash contained by retry" `Quick
          test_session_contains_one_crash;
        Alcotest.test_case "two crashes degrade the request" `Quick
          test_session_degrades_after_two_crashes;
        Alcotest.test_case "validation" `Quick test_session_validation;
        qtest prop_session_add_remove_equals_scratch ] );
    ( "server.daemon",
      [ Alcotest.test_case "smoke" `Quick test_daemon_smoke;
        Alcotest.test_case "bad input" `Quick test_daemon_bad_input;
        Alcotest.test_case "oversized line" `Quick test_daemon_oversized_line;
        Alcotest.test_case "backpressure" `Quick test_daemon_backpressure;
        Alcotest.test_case "chaos containment: raise" `Quick
          (test_daemon_chaos_containment Ec_util.Fault.Raise_exn {|"degraded":true|});
        Alcotest.test_case "chaos containment: burn" `Quick
          (test_daemon_chaos_containment Ec_util.Fault.Burn_budget
             {|"reason":"deadline"|});
        Alcotest.test_case "chaos containment: delay" `Quick
          (test_daemon_chaos_containment Ec_util.Fault.Delay
             {|"reason":"deadline"|}) ] ) ]
