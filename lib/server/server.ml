module Budget = Ec_util.Budget
module Json = Ec_util.Json
module Fault = Ec_util.Fault
module Metrics = Ec_util.Metrics
module Trace = Ec_util.Trace
module Pool = Ec_util.Pool
module F = Ec_cnf.Formula

type config = {
  jobs : int;
  session_queue_bound : int;
  global_queue_bound : int;
  max_sessions : int;
  default_deadline_ms : int;
  max_line_bytes : int;
  drain_deadline_s : float;
  watchdog_grace_s : float;
  stop : bool Atomic.t;
}

let default_config () =
  { jobs = 1;
    session_queue_bound = 16;
    global_queue_bound = 256;
    max_sessions = 1024;
    default_deadline_ms = 2_000;
    max_line_bytes = 8 * 1024 * 1024;
    drain_deadline_s = 5.0;
    watchdog_grace_s = 0.05;
    stop = Atomic.make false }

(* ---- state ------------------------------------------------------- *)

type entry = {
  session : Session.t;
  queue : Wire.request Queue.t;   (* guarded by [state.lock] *)
  mutable in_flight : bool;       (* a drain job owns this session *)
  mutable closed : bool;
}

type state = {
  cfg : config;
  pool : Pool.t;
  wd : Watchdog.t;
  lock : Mutex.t;  (* sessions, queues, queued_total, flags below *)
  sessions : (string, entry) Hashtbl.t;
  mutable queued_total : int;
  mutable active_jobs : int;      (* running drain jobs, incl. detached *)
  mutable requests : int;
  mutable draining : bool;
  mutable hard_stop : bool;       (* drain deadline blown: answer fast *)
  out_lock : Mutex.t;
  mutable out_fd : Unix.file_descr;
}

let requests_metric = Metrics.counter "serve.requests"
let errors_metric = Metrics.counter "serve.errors"
let overloaded_metric = Metrics.counter "serve.overloaded"
let dropped_metric = Metrics.counter "serve.dropped_responses"
let sessions_gauge = Metrics.gauge "serve.sessions_active"
let queue_gauge = Metrics.gauge "serve.queue_depth"
let queue_hist = Metrics.histogram "serve.queue_depth.observed"

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Responses from worker domains and the reader interleave on one
   descriptor; the lock keeps lines whole.  A vanished peer (socket
   client gone between requests) must not take the daemon down — the
   response is dropped and counted. *)
let respond st line =
  with_lock st.out_lock @@ fun () ->
  let data = Bytes.of_string (line ^ "\n") in
  let rec write_all off len =
    if len > 0 then begin
      let n = Unix.write st.out_fd data off len in
      write_all (off + n) (len - n)
    end
  in
  match write_all 0 (Bytes.length data) with
  | () -> ()
  | exception Unix.Unix_error ((EPIPE | EBADF | ECONNRESET), _, _) ->
    Metrics.incr dropped_metric

(* ---- line reader ------------------------------------------------- *)

type line_event = Line of string | Oversized | Eof | Stopped

type reader = {
  rfd : Unix.file_descr;
  rbuf : Buffer.t;
  rchunk : Bytes.t;
  rlines : line_event Queue.t;
  mutable rdiscarding : bool;   (* swallowing an oversized line *)
  mutable reof : bool;
}

let reader fd =
  { rfd = fd;
    rbuf = Buffer.create 4096;
    rchunk = Bytes.create 65536;
    rlines = Queue.create ();
    rdiscarding = false;
    reof = false }

(* Scan only the fresh chunk for newlines, so an 8 MiB DIMACS payload
   arriving in 64 KiB reads costs O(bytes), not O(bytes * reads). *)
let feed r ~max_bytes data len =
  let start = ref 0 in
  for i = 0 to len - 1 do
    if Bytes.get data i = '\n' then begin
      Buffer.add_subbytes r.rbuf data !start (i - !start);
      start := i + 1;
      if r.rdiscarding then begin
        r.rdiscarding <- false;
        Buffer.clear r.rbuf;
        Queue.push Oversized r.rlines
      end
      else if Buffer.length r.rbuf > max_bytes then begin
        (* the whole line arrived inside one chunk, past the bound *)
        Buffer.clear r.rbuf;
        Queue.push Oversized r.rlines
      end
      else begin
        Queue.push (Line (Buffer.contents r.rbuf)) r.rlines;
        Buffer.clear r.rbuf
      end
    end
  done;
  Buffer.add_subbytes r.rbuf data !start (len - !start);
  if Buffer.length r.rbuf > max_bytes && not r.rdiscarding then begin
    (* Stop hoarding a line that can only be rejected; one [Oversized]
       is emitted when its terminator finally arrives. *)
    r.rdiscarding <- true;
    Buffer.clear r.rbuf
  end

let rec next_event st r =
  if not (Queue.is_empty r.rlines) then Queue.pop r.rlines
  else if r.reof then
    if Buffer.length r.rbuf > 0 && not r.rdiscarding then begin
      let line = Buffer.contents r.rbuf in
      Buffer.clear r.rbuf;
      Line line
    end
    else Eof
  else if Atomic.get st.cfg.stop then Stopped
  else begin
    (* Short select timeout so an external stop request is noticed
       promptly even on an idle connection. *)
    match Unix.select [ r.rfd ] [] [] 0.1 with
    | [], _, _ -> next_event st r
    | _ :: _, _, _ ->
      (match Unix.read r.rfd r.rchunk 0 (Bytes.length r.rchunk) with
      | 0 -> r.reof <- true
      | n -> feed r ~max_bytes:st.cfg.max_line_bytes r.rchunk n
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
        r.reof <- true);
      next_event st r
    | exception Unix.Unix_error (EINTR, _, _) -> next_event st r
  end

(* ---- session operations (run on pool workers) -------------------- *)

let latency_hist op = Metrics.histogram ("serve." ^ op ^ ".latency_s")

let reason_string ~wd_fired = function
  | Budget.Cancelled when wd_fired -> "deadline"
  | r -> Budget.reason_to_string r

let run_solve st entry ~id ~sname ~deadline_ms =
  let hard_stopped = with_lock st.lock (fun () -> st.hard_stop) in
  if hard_stopped then
    Wire.unknown ~session:sname ~id ~reason:"cancelled (drain)" ~degraded:false ()
  else begin
    let dms = Option.value deadline_ms ~default:st.cfg.default_deadline_ms in
    let time_s = float_of_int dms /. 1000. in
    let budget = Budget.create ~time_s ~cancel:(Atomic.make false) () in
    (* The budget enforces the deadline cooperatively on its own; the
       watchdog is the backstop for a solve wedged before its first
       budget check (e.g. an injected delay), granted a small grace so
       the engine's own check normally wins. *)
    let token =
      Watchdog.guard st.wd ~deadline_s:(time_s +. st.cfg.watchdog_grace_s) budget
    in
    let result = Session.solve ~budget entry.session in
    Watchdog.disarm st.wd token;
    let { Session.outcome; certified; degraded; retried } = result in
    match outcome with
    | Ec_sat.Outcome.Sat model ->
      Wire.sat ~session:sname ~id ~model ~certified ~degraded ~retried ()
    | Ec_sat.Outcome.Unsat -> Wire.unsat ~session:sname ~id ~degraded ()
    | Ec_sat.Outcome.Unknown reason ->
      Wire.unknown ~session:sname ~id
        ~reason:(reason_string ~wd_fired:(Watchdog.fired token) reason)
        ~degraded ()
  end

let clauses_of_lists lists =
  (* Tautologies are legal input and vacuously true — dropped, exactly
     as [Formula.of_lists] treats them. *)
  List.filter_map Ec_cnf.Clause.make_opt lists

let execute_op st entry req =
  let id = req.Wire.req_id in
  let sname = Session.name entry.session in
  let s = entry.session in
  match req.Wire.req_op with
  | Wire.Solve { deadline_ms } -> run_solve st entry ~id ~sname ~deadline_ms
  | Wire.Add_clauses lists ->
    Session.add_clauses s (clauses_of_lists lists);
    Wire.ok ~session:sname ~id
      [ ("vars", Json.Int (Session.num_vars s));
        ("clauses", Json.Int (Session.num_clauses s)) ]
  | Wire.Remove_vars vars -> (
    match Session.remove_vars s vars with
    | Ok () ->
      Wire.ok ~session:sname ~id
        [ ("vars", Json.Int (Session.num_vars s));
          ("clauses", Json.Int (Session.num_clauses s)) ]
    | Error msg ->
      Metrics.incr errors_metric;
      Wire.error ~session:sname ~id msg)
  | Wire.Pin lits -> (
    match Session.pin s lits with
    | Ok () ->
      Wire.ok ~session:sname ~id
        [ ("pins", Json.Int (List.length (Session.pins s))) ]
    | Error msg ->
      Metrics.incr errors_metric;
      Wire.error ~session:sname ~id msg)
  | Wire.Query ->
    Wire.ok ~session:sname ~id
      [ ("vars", Json.Int (Session.num_vars s));
        ("clauses", Json.Int (Session.num_clauses s));
        ("pins", Json.Int (List.length (Session.pins s)));
        ("revision", Json.Int (Session.revision s));
        ("solves", Json.Int (Session.solves s));
        ("degraded", Json.Bool (Session.is_degraded s));
        ("has_model", Json.Bool (Session.last_model s <> None)) ]
  | Wire.Close ->
    with_lock st.lock (fun () ->
        entry.closed <- true;
        Hashtbl.remove st.sessions sname;
        Metrics.set sessions_gauge (float_of_int (Hashtbl.length st.sessions)));
    Wire.ok ~session:sname ~id []
  | Wire.Create_session _ | Wire.Health | Wire.Shutdown ->
    (* Routed inline by the reader; defensive. *)
    Metrics.incr errors_metric;
    Wire.error ~session:sname ~id "internal: misrouted op"

let execute st entry req =
  let op = Wire.op_name req.Wire.req_op in
  let started = Unix.gettimeofday () in
  let line =
    Trace.span ~cat:"serve"
      ~args:[ ("op", op); ("session", Session.name entry.session) ]
      "serve.request"
    @@ fun () ->
    match execute_op st entry req with
    | line -> line
    | exception e ->
      (* Containment of the containment: nothing escaping one request
         may take down its worker domain. *)
      Metrics.incr errors_metric;
      Wire.error ~session:(Session.name entry.session) ~id:req.Wire.req_id
        ("internal: " ^ Printexc.to_string e)
  in
  Metrics.observe (latency_hist op) (Unix.gettimeofday () -. started);
  respond st line

(* The single drain job a session has in flight: pop-execute until the
   queue is empty, then release ownership.  Strict FIFO per session;
   distinct sessions drain on distinct workers. *)
let rec drain_session st entry =
  let next =
    with_lock st.lock @@ fun () ->
    if Queue.is_empty entry.queue then begin
      entry.in_flight <- false;
      st.active_jobs <- st.active_jobs - 1;
      None
    end
    else begin
      let req = Queue.pop entry.queue in
      st.queued_total <- st.queued_total - 1;
      Metrics.set queue_gauge (float_of_int st.queued_total);
      Some req
    end
  in
  match next with
  | None -> ()
  | Some req ->
    execute st entry req;
    drain_session st entry

(* ---- request routing (reader thread) ----------------------------- *)

let enqueue st entry req =
  let decision =
    with_lock st.lock @@ fun () ->
    if entry.closed then `Closed
    else if
      Queue.length entry.queue >= st.cfg.session_queue_bound
      || st.queued_total >= st.cfg.global_queue_bound
    then
      (* Deterministic hint: proportional to the backlog ahead. *)
      `Overloaded (25 * (Queue.length entry.queue + 1))
    else begin
      Queue.push req entry.queue;
      st.queued_total <- st.queued_total + 1;
      Metrics.set queue_gauge (float_of_int st.queued_total);
      Metrics.observe queue_hist (float_of_int st.queued_total);
      if entry.in_flight then `Queued
      else begin
        entry.in_flight <- true;
        st.active_jobs <- st.active_jobs + 1;
        `Spawn
      end
    end
  in
  match decision with
  | `Queued -> ()
  | `Spawn ->
    (* Future discarded on purpose: the job's only output is the
       responses it writes; drain synchronizes on [active_jobs]. *)
    ignore (Pool.submit st.pool (fun () -> drain_session st entry) : unit Pool.future)
  | `Closed ->
    respond st
      (Wire.error ?session:req.Wire.req_session ~id:req.Wire.req_id
         "session is closed")
  | `Overloaded retry_after_ms ->
    Metrics.incr overloaded_metric;
    respond st
      (Wire.overloaded
         ?session:req.Wire.req_session ~id:req.Wire.req_id ~retry_after_ms ())

let create_session st ~id ~sname ~dimacs ~num_vars ~clauses =
  match
    (match dimacs with
    | Some text -> Ec_cnf.Dimacs.parse_string text
    | None ->
      let lists = Option.value clauses ~default:[] in
      let max_var =
        List.fold_left
          (fun acc c -> List.fold_left (fun acc l -> max acc (abs l)) acc c)
          0 lists
      in
      F.of_lists ~num_vars:(max (Option.value num_vars ~default:0) max_var) lists)
  with
  | exception Ec_cnf.Dimacs.Parse_error msg ->
    Metrics.incr errors_metric;
    Wire.error ~session:sname ~id ("dimacs: " ^ msg)
  | formula ->
    let outcome =
      with_lock st.lock @@ fun () ->
      if st.draining then `Draining
      else if Hashtbl.mem st.sessions sname then `Exists
      else if Hashtbl.length st.sessions >= st.cfg.max_sessions then `Full
      else begin
        let entry =
          { session = Session.create ~name:sname formula;
            queue = Queue.create ();
            in_flight = false;
            closed = false }
        in
        Hashtbl.add st.sessions sname entry;
        Metrics.set sessions_gauge (float_of_int (Hashtbl.length st.sessions));
        `Created
      end
    in
    (match outcome with
    | `Created ->
      Wire.ok ~session:sname ~id
        [ ("vars", Json.Int (F.num_vars formula));
          ("clauses", Json.Int (F.num_clauses formula)) ]
    | `Exists ->
      Metrics.incr errors_metric;
      Wire.error ~session:sname ~id "session already exists"
    | `Full ->
      Metrics.incr errors_metric;
      Wire.error ~session:sname ~id
        (Printf.sprintf "session limit reached (%d)" st.cfg.max_sessions)
    | `Draining ->
      Metrics.incr errors_metric;
      Wire.error ~session:sname ~id "server is draining")

let health_line st ~id =
  let sessions, requests, draining =
    with_lock st.lock (fun () ->
        (Hashtbl.length st.sessions, st.requests, st.draining))
  in
  (* No session field and no timing fields: health answers are
     deterministic and excluded from per-session response streams. *)
  Wire.ok ~id
    [ ("sessions", Json.Int sessions);
      ("requests", Json.Int requests);
      ("draining", Json.Bool draining) ]

let handle_line st line =
  with_lock st.lock (fun () -> st.requests <- st.requests + 1);
  Metrics.incr requests_metric;
  match Wire.parse_request line with
  | Error { Wire.rej_id; rej_session; rej_msg } ->
    Metrics.incr errors_metric;
    respond st (Wire.error ?session:rej_session ~id:rej_id rej_msg);
    `Continue
  | Ok req -> (
    match
      Fault.maybe_raise "serve.dispatch";
      Fault.maybe_delay "serve.dispatch"
    with
    | exception e ->
      (* A dispatch fault poisons one request, not the daemon. *)
      Metrics.incr errors_metric;
      respond st
        (Wire.error ?session:req.Wire.req_session ~id:req.Wire.req_id
           ("dispatch: " ^ Printexc.to_string e));
      `Continue
    | () -> (
      match req.Wire.req_op with
      | Wire.Health ->
        respond st (health_line st ~id:req.Wire.req_id);
        `Continue
      | Wire.Shutdown ->
        respond st (Wire.ok ~id:req.Wire.req_id [ ("draining", Json.Bool true) ]);
        `Shutdown
      | Wire.Create_session { dimacs; num_vars; clauses } ->
        let sname = Option.get req.Wire.req_session in
        respond st (create_session st ~id:req.Wire.req_id ~sname ~dimacs ~num_vars ~clauses);
        `Continue
      | Wire.Solve _ | Wire.Add_clauses _ | Wire.Remove_vars _ | Wire.Pin _
      | Wire.Query | Wire.Close -> (
        let sname = Option.get req.Wire.req_session in
        let entry =
          with_lock st.lock (fun () -> Hashtbl.find_opt st.sessions sname)
        in
        match entry with
        | None ->
          Metrics.incr errors_metric;
          respond st
            (Wire.error ~session:sname ~id:req.Wire.req_id
               (Printf.sprintf "unknown session %S" sname));
          `Continue
        | Some entry ->
          enqueue st entry req;
          `Continue)))

(* ---- drain ------------------------------------------------------- *)

let busy st =
  with_lock st.lock (fun () -> st.queued_total > 0 || st.active_jobs > 0)

let drain st =
  Trace.span ~cat:"serve" "serve.drain" @@ fun () ->
  with_lock st.lock (fun () -> st.draining <- true);
  let deadline = Unix.gettimeofday () +. st.cfg.drain_deadline_s in
  (* Polling wait: the stdlib's [Condition] has no timed wait, and the
     drain path is cold. *)
  while busy st && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  if busy st then begin
    (* Deadline blown: cancel every in-flight solve cooperatively and
       fail the still-queued work fast, then wait for the workers to
       unwind — [Pool.shutdown] below joins them. *)
    with_lock st.lock (fun () -> st.hard_stop <- true);
    Watchdog.cancel_all st.wd
  end;
  Pool.shutdown st.pool;
  Watchdog.shutdown st.wd;
  (* Trace/Metrics artifacts are written by the CLI's observability
     wrapper once [run] returns — after this point nothing records. *)
  0

(* ---- entry points ------------------------------------------------ *)

type stop_cause = By_eof | By_shutdown | By_stop

let serve_fd st fd =
  let r = reader fd in
  let rec loop () =
    match next_event st r with
    | Eof -> By_eof
    | Stopped -> By_stop
    | Oversized ->
      Metrics.incr errors_metric;
      respond st
        (Wire.error ~id:Json.Null
           (Printf.sprintf "request exceeds max line size (%d bytes)"
              st.cfg.max_line_bytes));
      loop ()
    | Line l when String.trim l = "" -> loop ()
    | Line l -> (
      match handle_line st l with
      | `Continue -> loop ()
      | `Shutdown -> By_shutdown)
  in
  loop ()

let make_state cfg out_fd =
  { cfg;
    pool = Pool.create cfg.jobs;
    wd = Watchdog.create ();
    lock = Mutex.create ();
    sessions = Hashtbl.create 64;
    queued_total = 0;
    active_jobs = 0;
    requests = 0;
    draining = false;
    hard_stop = false;
    out_lock = Mutex.create ();
    out_fd }

let ignore_sigpipe () =
  (* A peer that disconnects mid-response must surface as EPIPE (handled
     in [respond]), not kill the daemon. *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let run cfg in_fd out_fd =
  ignore_sigpipe ();
  let st = make_state cfg out_fd in
  let (_ : stop_cause) = serve_fd st in_fd in
  drain st

let run_stdio cfg = run cfg Unix.stdin Unix.stdout

let rec accept_loop cfg st listen_fd =
  if Atomic.get cfg.stop then drain st
  else begin
    match Unix.select [ listen_fd ] [] [] 0.1 with
    | exception Unix.Unix_error (EINTR, _, _) -> accept_loop cfg st listen_fd
    | [], _, _ -> accept_loop cfg st listen_fd
    | _ :: _, _, _ ->
      let conn, _ = Unix.accept listen_fd in
      with_lock st.out_lock (fun () -> st.out_fd <- conn);
      let cause = serve_fd st conn in
      (* Late responses from still-running jobs would hit a closed
         descriptor; point them at /dev/null semantics via the counted
         drop path by closing after swapping back. *)
      with_lock st.out_lock (fun () ->
          (try Unix.close conn with Unix.Unix_error (_, _, _) -> ()));
      (match cause with
      | By_eof ->
        (* Client detached; sessions persist for the next connection. *)
        accept_loop cfg st listen_fd
      | By_shutdown | By_stop -> drain st)
  end

let serve_listening cfg listen_fd ~cleanup =
  ignore_sigpipe ();
  let st = make_state cfg Unix.stdout in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error (_, _, _) -> ());
      cleanup ())
    (fun () -> accept_loop cfg st listen_fd)

let run_unix_socket cfg path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (* The CLI validated the path (exists only as a socket / dead file it
     may replace); a leftover from a previous run is replaced. *)
  if Sys.file_exists path then Unix.unlink path;
  Unix.bind fd (ADDR_UNIX path);
  Unix.listen fd 16;
  serve_listening cfg fd ~cleanup:(fun () ->
      match Unix.unlink path with
      | () -> ()
      | exception Unix.Unix_error (_, _, _) -> ())

let run_tcp cfg port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 16;
  serve_listening cfg fd ~cleanup:(fun () -> ())
