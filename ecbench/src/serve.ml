(* The serve workload: the real [ecsat serve --jobs 2] over one stdio
   pipe, two resident sessions, at most one outstanding step per
   session.  A step is a delta and a solve (a pin step also unpins, so
   its pins hold for that one solve).  The traced run replays the same
   steps in-process against [Session] and [Wire]. *)

module J = Ec_util.Json
module Session = Ec_server.Session
module Wire = Ec_server.Wire

let now = Unix.gettimeofday

(* Far above any step: a solve answers on its own, never on the clock. *)
let deadline_ms = 60_000

type role = Create | Delta | Solve | Unpin

type answer = { status : string; model : int list }

let obj fields = J.to_string (J.Obj fields)

let ints xs = J.List (List.map (fun x -> J.Int x) xs)

let create_line ~id (s : Gen.session) =
  obj
    [ ("op", J.String "create-session");
      ("session", J.String s.sname);
      ("id", J.Int id);
      ("num_vars", J.Int (Ec_cnf.Formula.num_vars s.formula));
      ( "clauses",
        J.List
          (Array.to_list
             (Array.map
                (fun c -> ints (Array.to_list (Ec_cnf.Clause.lits c)))
                (Ec_cnf.Formula.clauses s.formula))) ) ]

let session_line ~id (s : Gen.session) op fields =
  obj ([ ("op", J.String op); ("session", J.String s.sname); ("id", J.Int id) ] @ fields)

let solve_line ~id s = session_line ~id s "solve" [ ("deadline_ms", J.Int deadline_ms) ]

(* The request lines of one step, each with its role. *)
let step_lines ~id (s : Gen.session) (st : Gen.step) =
  let delta =
    match st.delta with
    | Gen.Add_clauses cs -> session_line ~id s "add-clauses" [ ("clauses", J.List (List.map ints cs)) ]
    | Gen.Remove_vars vs -> session_line ~id s "remove-vars" [ ("vars", ints vs) ]
    | Gen.Pin ls -> session_line ~id s "pin" [ ("lits", ints ls) ]
  in
  [ (Delta, delta); (Solve, solve_line ~id:(id + 1) s) ]
  @ match st.delta with
    | Gen.Pin _ -> [ (Unpin, session_line ~id:(id + 2) s "pin" [ ("lits", ints []) ]) ]
    | Gen.Add_clauses _ | Gen.Remove_vars _ -> []

let parse_answer line =
  match J.parse line with
  | Error e -> failwith ("unparsable response: " ^ e)
  | Ok j ->
    let id = Option.bind (J.member "id" j) J.to_int_opt in
    let status = Option.value (Option.bind (J.member "status" j) J.to_string_opt) ~default:"" in
    let model =
      match Option.bind (J.member "model" j) J.to_list_opt with
      | None -> []
      | Some xs -> List.filter_map J.to_int_opt xs
    in
    (id, { status; model })

(* ---- the daemon ---- *)

type daemon = { pid : int; tx : out_channel; rx : in_channel }

let spawn ~ecsat ~env ~stderr_path =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile stderr_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env ecsat [| ecsat; "serve"; "--jobs"; "2" |] env in_r out_w err
  in
  List.iter Unix.close [ in_r; out_w; err ];
  { pid; tx = Unix.out_channel_of_descr in_w; rx = Unix.in_channel_of_descr out_r }

let send d lines =
  List.iter
    (fun l ->
      output_string d.tx l;
      output_char d.tx '\n')
    lines;
  flush d.tx

(* Shut down, drain the remaining answers and reap the process. *)
let stop d =
  send d [ obj [ ("op", J.String "shutdown"); ("id", J.Int 0) ] ];
  close_out d.tx;
  (try
     while true do
       ignore (input_line d.rx)
     done
   with End_of_file -> ());
  close_in d.rx;
  match snd (Unix.waitpid [] d.pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> failwith (Printf.sprintf "ecsat serve exited with %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> failwith (Printf.sprintf "ecsat serve killed by signal %d" s)

let close_line ~id (s : Gen.session) = session_line ~id s "close" []

(* Checks the answers to create-session (and close) and the first
   solve of a fresh session. *)
let expect_fresh answers =
  List.iter
    (fun (want, a) ->
      if a.status <> want then failwith ("fresh session answered " ^ a.status ^ ", not " ^ want))
    answers

(* [f d], and if it raises, the daemon killed and reaped before the
   exception goes on. *)
let guarded d f =
  match f d with
  | v -> v
  | exception e ->
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    raise e

(* Set-up: start the daemon, create the first session of each lane,
   answer their first solve.  Returns the daemon and the set-up
   time. *)
let start ~ecsat ~env ~stderr_path (lanes : Gen.session array array) =
  let t0 = now () in
  guarded (spawn ~ecsat ~env ~stderr_path) @@ fun d ->
  let first = Array.to_list (Array.map (fun l -> l.(0)) lanes) in
  send d (List.mapi (fun i s -> create_line ~id:(1 + i) s) first);
  send d (List.mapi (fun i s -> solve_line ~id:(101 + i) s) first);
  for _ = 1 to 2 * List.length first do
    match parse_answer (input_line d.rx) with
    | Some id, a -> expect_fresh [ ((if id <= 100 then "ok" else "sat"), a) ]
    | None, a -> failwith ("serve set-up answered " ^ a.status)
  done;
  (d, now () -. t0)

type step_result = {
  lane : int;
  cycle : int;
  idx : int;
  kind : Gen.kind;
  latency_ms : float;
  ref_ms : float;  (* [Hostspeed] unit timed right after the step *)
  answers : (role * answer) list;  (* in request order *)
}

(* Closed loop: each lane's next step is sent as soon as its last
   answer arrives, until [seconds] have passed and [min_requests]
   steps are issued.  After [Gen.cycle_steps] steps a lane closes its
   session and creates the next one (not a step, not timed as one).
   Returns the completed steps and the window's length. *)
let closed_loop d (lanes : Gen.session array array) ~seconds ~min_requests =
  let next_id = ref 1_000 in
  let pending = Hashtbl.create 16 in
  let inflight = Array.make (Array.length lanes) None in
  let pos = Array.make (Array.length lanes) (0, 0) in
  let issued = ref 0 in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let send_tracked k work lines =
    let base = !next_id in
    next_id := base + 10;
    List.iteri (fun j (role, _) -> Hashtbl.replace pending (base + j) (k, role)) lines;
    inflight.(k) <- Some (work, now (), List.length lines, []);
    send d (List.map snd lines)
  in
  let issue k =
    let c, i = pos.(k) in
    if c < Array.length lanes.(k) && (now () < deadline || !issued < min_requests) then
      if i = Array.length lanes.(k).(c).Gen.steps then begin
        (* Close first and wait: create-session is served by the
           reader at once, the close by the session's worker. *)
        if c + 1 < Array.length lanes.(k) then begin
          pos.(k) <- (c + 1, -1);
          send_tracked k `Close [ (Create, close_line ~id:!next_id lanes.(k).(c)) ]
        end
      end
      else if i < 0 then begin
        let fresh = lanes.(k).(c) in
        pos.(k) <- (c, 0);
        send_tracked k `Create
          [ (Create, create_line ~id:!next_id fresh); (Create, solve_line ~id:(!next_id + 1) fresh) ]
      end
      else begin
        pos.(k) <- (c, i + 1);
        incr issued;
        send_tracked k (`Step (c, i)) (step_lines ~id:!next_id lanes.(k).(c) lanes.(k).(c).steps.(i))
      end
  in
  Array.iteri (fun k _ -> issue k) lanes;
  let results = ref [] in
  while Array.exists Option.is_some inflight do
    let id, a = parse_answer (input_line d.rx) in
    match Option.bind id (Hashtbl.find_opt pending) with
    | None -> failwith "answer to an unknown request id"
    | Some (k, role) -> (
      Hashtbl.remove pending (Option.get id);
      match inflight.(k) with
      | None -> failwith "answer for an idle lane"
      | Some (work, started, left, acc) ->
        let acc = (role, a) :: acc in
        if left > 1 then inflight.(k) <- Some (work, started, left - 1, acc)
        else begin
          inflight.(k) <- None;
          (match work with
          | `Close -> expect_fresh (List.combine [ "ok" ] (List.rev_map snd acc))
          | `Create -> expect_fresh (List.combine [ "ok"; "sat" ] (List.rev_map snd acc))
          | `Step (c, i) ->
            results :=
              { lane = k;
                cycle = c;
                idx = i;
                kind = lanes.(k).(c).steps.(i).kind;
                latency_ms = (now () -. started) *. 1000.0;
                ref_ms = Hostspeed.sample ();
                answers = List.rev acc }
              :: !results);
          issue k
        end)
  done;
  (List.rev !results, now () -. t0)

(* ---- checks ---- *)

(* Every answer of every completed step against the benchmark's own
   replay of the deltas: statuses as built, models satisfying the
   mirrored formula and the step's pins. *)
let check (lanes : Gen.session array array) results =
  let failed = ref 0 in
  let fail r msg =
    if !failed < 5 then
      Printf.printf "FAILED serve step %s/%d#%d (%s): %s\n" lanes.(r.lane).(r.cycle).sname r.cycle
        r.idx (Gen.kind_name r.kind) msg;
    incr failed
  in
  Array.iteri
    (fun k cycles ->
      Array.iteri
        (fun c (s : Gen.session) ->
          let mine = List.filter (fun r -> r.lane = k && r.cycle = c) results in
          let mine = List.sort (fun a b -> compare a.idx b.idx) mine in
          let clauses = ref (Mirror.of_formula s.formula) in
          let at = ref 0 in
          List.iter
            (fun r ->
              while !at <= r.idx do
                clauses := Gen.apply_delta !clauses s.steps.(!at).delta;
                incr at
              done;
              let st = s.steps.(r.idx) in
              let pins = match st.delta with Gen.Pin ls -> ls | _ -> [] in
              List.iter
                (fun (role, a) ->
                  match role with
                  | Create -> ()
                  | Delta | Unpin -> if a.status <> "ok" then fail r ("delta answered " ^ a.status)
                  | Solve ->
                    let want = Gen.expected_status st.kind in
                    if a.status <> want then
                      fail r (Printf.sprintf "solve answered %s, built for %s" a.status want)
                    else if a.status = "sat" then begin
                      let value = Mirror.of_literals a.model in
                      if not (Mirror.satisfied value !clauses) then
                        fail r "model violates the mirrored formula"
                      else if not (List.for_all (Mirror.lit_true value) pins) then
                        fail r "model violates the step's pins"
                    end)
                r.answers)
            mine)
        cycles)
    lanes;
  !failed

(* ---- in-process replay ---- *)

let session_budget = Pipeline.budget

(* The options [Session] gives its engine (seeded from the session name
   and its rebuild count), so the counting engine below follows the
   same search. *)
let engine_options ~name ~rebuilds =
  { Pipeline.cdcl_options with
    Ec_sat.Cdcl.seed =
      Ec_sat.Cdcl.default_options.Ec_sat.Cdcl.seed lxor Hashtbl.hash name lxor (0x9E37 * rebuilds) }

let render_solve ~sname ~id (r : Session.solve_result) =
  match r.Session.outcome with
  | Ec_sat.Outcome.Sat model ->
    Wire.sat ~session:sname ~id ~model ~certified:r.Session.certified
      ~degraded:r.Session.degraded ~retried:r.Session.retried ()
  | Ec_sat.Outcome.Unsat -> Wire.unsat ~session:sname ~id ~degraded:r.Session.degraded ()
  | Ec_sat.Outcome.Unknown reason ->
    Wire.unknown ~session:sname ~id ~reason:(Ec_util.Budget.reason_to_string reason)
      ~degraded:r.Session.degraded ()

(* One request line through Wire and Session, as the daemon's worker
   runs it; returns the rendered answer line. *)
let execute sp s kind line =
  match Spans.record sp "wire.parse" (fun () -> Wire.parse_request line) with
  | Error r -> Wire.error ~id:r.Wire.rej_id r.Wire.rej_msg
  | Ok req -> (
    let id = req.Wire.req_id and sname = Session.name s in
    let ok fields = Spans.record sp "wire.render" (fun () -> Wire.ok ~session:sname ~id fields) in
    let delta f =
      match Spans.record sp "session.delta" f with
      | Ok () -> ok [ ("vars", J.Int (Session.num_vars s)) ]
      | Error msg -> Wire.error ~session:sname ~id msg
    in
    match req.Wire.req_op with
    | Wire.Add_clauses lists ->
      delta (fun () ->
          Ok (Session.add_clauses s (List.filter_map Ec_cnf.Clause.make_opt lists)))
    | Wire.Remove_vars vs -> delta (fun () -> Session.remove_vars s vs)
    | Wire.Pin ls -> delta (fun () -> Session.pin s ls)
    | Wire.Solve _ ->
      let r =
        Spans.record sp ("session.solve." ^ Gen.kind_name kind) (fun () ->
            Session.solve ~budget:session_budget s)
      in
      Spans.record sp "wire.render" (fun () -> render_solve ~sname ~id r)
    | Wire.Create_session _ | Wire.Query | Wire.Close | Wire.Health | Wire.Shutdown ->
      Wire.error ~session:sname ~id "unexpected op")

type lane = {
  sp : Spans.t;
  mutable replayed : step_result list;  (* newest first *)
  mutable step_ms : float list;         (* newest first *)
}

(* Replays, per lane, the steps the daemon completed ([done_.(k)]
   steps, cycle after cycle), on two copies in lockstep: one plain and
   one recording spans, so both see the same host speed.  A third
   engine per session, fed the same clauses, answers each solve
   through [Incremental.solve_with_core] outside every timed step, for
   the conflict counts [Session] does not return.  Returns (plain,
   traced, conflicts per solve). *)
let replay (lanes : Gen.session array array) (done_ : int array) =
  let plain = { sp = Spans.create ~on:false; replayed = []; step_ms = [] }
  and traced = { sp = Spans.create ~on:true; replayed = []; step_ms = [] } in
  let conflicts = ref [] in
  let rid = ref 0 in
  let fresh (g : Gen.session) =
    let s = Session.create ~name:g.sname g.formula in
    ignore (Session.solve ~budget:session_budget s);
    s
  in
  let run_step l live k c i (st : Gen.step) lines =
    Spans.set_request l.sp !rid;
    let t0 = now () in
    let rendered =
      Spans.record l.sp "step" (fun () -> List.map (fun (_, line) -> execute l.sp live st.kind line) lines)
    in
    l.step_ms <- ((now () -. t0) *. 1000.0) :: l.step_ms;
    l.replayed <-
      { lane = k;
        cycle = c;
        idx = i;
        kind = st.kind;
        latency_ms = 0.0;
        ref_ms = 0.0;
        answers = List.map2 (fun (role, _) r -> (role, snd (parse_answer r))) lines rendered }
      :: l.replayed
  in
  (* One cursor per lane: (cycle, plain session, traced session,
     counting engine, engine rebuilds). *)
  let cursors =
    Array.map
      (fun cycles ->
        let g = cycles.(0) in
        let e = Ec_sat.Incremental.create ~options:(engine_options ~name:g.Gen.sname ~rebuilds:0) g.formula in
        ignore (Ec_sat.Incremental.solve ~budget:session_budget e);
        ref (0, fresh g, fresh g, e, 0))
      lanes
  in
  for j = 0 to Array.fold_left max 0 done_ - 1 do
    Array.iteri
      (fun k cycles ->
        if j < done_.(k) then begin
          let c = j / Gen.cycle_steps and i = j mod Gen.cycle_steps in
          let g = cycles.(c) in
          let c0, _, _, _, _ = !(cursors.(k)) in
          if c <> c0 then begin
            let e = Ec_sat.Incremental.create ~options:(engine_options ~name:g.Gen.sname ~rebuilds:0) g.formula in
            ignore (Ec_sat.Incremental.solve ~budget:session_budget e);
            cursors.(k) := (c, fresh g, fresh g, e, 0)
          end;
          let _, ps, ts, e, rebuilds = !(cursors.(k)) in
          let st = g.steps.(i) in
          let lines = step_lines ~id:(1_000 + (10 * j)) g st in
          incr rid;
          run_step plain ps k c i st lines;
          run_step traced ts k c i st lines;
          let e, rebuilds, pins =
            match st.delta with
            | Gen.Add_clauses cs ->
              Ec_sat.Incremental.add_clauses e (List.filter_map Ec_cnf.Clause.make_opt cs);
              (e, rebuilds, [])
            | Gen.Remove_vars _ ->
              ( Ec_sat.Incremental.create
                  ~options:(engine_options ~name:g.sname ~rebuilds:(rebuilds + 1))
                  (Session.formula ps),
                rebuilds + 1,
                [] )
            | Gen.Pin ls -> (e, rebuilds, ls)
          in
          cursors.(k) := (c, ps, ts, e, rebuilds);
          let r = Ec_sat.Incremental.solve_with_core ~assumptions:pins ~budget:session_budget e in
          conflicts :=
            float_of_int r.Ec_sat.Incremental.counters.Ec_util.Budget.spent_conflicts :: !conflicts
        end)
      lanes
  done;
  (plain, traced, List.rev !conflicts)

(* The daemon's GC totals from the runtime's exit report
   (OCAMLRUNPARAM=v=0x400). *)
let gc_report path =
  let ic = open_in path in
  let tbl = Hashtbl.create 8 in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line ':' with
       | Some i -> (
         let key = String.sub line 0 i in
         let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
         match float_of_string_opt v with Some f -> Hashtbl.replace tbl key f | None -> ())
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  fun key -> Option.value (Hashtbl.find_opt tbl key) ~default:0.0
