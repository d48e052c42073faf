(* Structured tracing for the solve stack.

   Design constraints, in order:

   1. Zero cost when disabled.  Every instrumented site performs
      exactly one [Atomic.get] on [armed] and branches away — no
      allocation, no clock read, no closure beyond what the caller
      already built.  The solve stack is instrumented permanently;
      only `--trace` (or a test) flips the flag.

   2. Domain-safe without per-event locking.  Each domain appends
      events to its own buffer, reached through [Domain.DLS]; the
      global registry of buffers is only locked when a domain first
      touches the tracer and when the main domain flushes.  Buffers
      are registered in the heap-held registry, not merely in DLS, so
      events survive the worker domain's death (pools are short-lived:
      [Pool.with_pool] joins its workers long before anyone flushes).

   3. Chrome trace-event output.  Spans are emitted as complete ("X")
      events with microsecond timestamps relative to [enable] time —
      one track per domain (tid = domain id), so nesting is by
      containment and chrome://tracing / Perfetto render pool workers
      (tables, serve sessions) as parallel tracks. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts_us : float;  (* since [enable], microseconds *)
  ev_dur_us : float; (* spans; 0 for instants *)
  ev_tid : int;      (* domain id *)
  ev_phase : char;   (* 'X' complete span, 'i' instant *)
  ev_args : (string * string) list;
}

let armed = Atomic.make false

(* Trace epoch: [Unix.gettimeofday] at [enable].  Wall clock rather
   than a true monotonic source (the stdlib exposes none), but all
   timestamps are deltas against this single epoch read once, so they
   are monotone within a run up to NTP slew — good enough for
   profiling solves. *)
let epoch = Atomic.make 0.0

type buffer = {
  buf_tid : int;
  mutable buf_events : event list; (* reverse chronological *)
}

(* Registry of every domain's buffer, locked only on first use per
   domain and at flush/reset time; the per-event path touches only the
   current domain's buffer. *)
let registry_lock = Mutex.create ()

(* eclint: allow DS001 — guarded by [registry_lock]: mutated only under
   the lock ([buffer_for_domain]/[reset]); readers ([events]) lock too *)
let registry : buffer list ref = ref []

let dls_buffer : buffer option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let buffer_for_domain () =
  let slot = Domain.DLS.get dls_buffer in
  match !slot with
  | Some b -> b
  | None ->
    let b = { buf_tid = (Domain.self () :> int); buf_events = [] } in
    Mutex.lock registry_lock;
    registry := b :: !registry;
    Mutex.unlock registry_lock;
    slot := Some b;
    b

let enabled () = Atomic.get armed

let enable () =
  Atomic.set epoch (Unix.gettimeofday ());
  Atomic.set armed true

let disable () = Atomic.set armed false

let reset () =
  Mutex.lock registry_lock;
  List.iter (fun b -> b.buf_events <- []) !registry;
  Mutex.unlock registry_lock

let now_us () = (Unix.gettimeofday () -. Atomic.get epoch) *. 1e6

let push ev =
  let b = buffer_for_domain () in
  b.buf_events <- ev :: b.buf_events

let instant ?(cat = "ec") ?(args = []) name =
  if Atomic.get armed then
    push
      { ev_name = name; ev_cat = cat; ev_ts_us = now_us (); ev_dur_us = 0.0;
        ev_tid = (Domain.self () :> int); ev_phase = 'i'; ev_args = args }

let close_span ~cat ~args name ts_us =
  push
    { ev_name = name; ev_cat = cat; ev_ts_us = ts_us;
      ev_dur_us = now_us () -. ts_us; ev_tid = (Domain.self () :> int);
      ev_phase = 'X'; ev_args = args }

let span ?(cat = "ec") ?(args = []) ?result_args name f =
  if not (Atomic.get armed) then f ()
  else begin
    let ts = now_us () in
    match f () with
    | v ->
      let args =
        args @ (match result_args with None -> [] | Some g -> g v)
      in
      close_span ~cat ~args name ts;
      v
    | exception e ->
      close_span ~cat
        ~args:(args @ [ ("raised", Printexc.to_string e) ])
        name ts;
      raise e
  end

(* --- flush ------------------------------------------------------- *)

let events () =
  Mutex.lock registry_lock;
  let all = List.concat_map (fun b -> b.buf_events) !registry in
  Mutex.unlock registry_lock;
  List.sort (fun a b -> compare a.ev_ts_us b.ev_ts_us) all

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let event_to_json ev =
  let args =
    match ev.ev_args with
    | [] -> ""
    | kvs ->
      let field (k, v) =
        Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)
      in
      Printf.sprintf ",\"args\":{%s}" (String.concat "," (List.map field kvs))
  in
  let dur =
    if ev.ev_phase = 'X' then Printf.sprintf ",\"dur\":%.1f" ev.ev_dur_us else ""
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.1f%s,\"pid\":1,\"tid\":%d%s}"
    (json_escape ev.ev_name) (json_escape ev.ev_cat) ev.ev_phase ev.ev_ts_us dur
    ev.ev_tid args

let to_chrome_json () =
  let evs = events () in
  Printf.sprintf "{\"traceEvents\":[%s],\"displayTimeUnit\":\"ms\"}"
    (String.concat ",\n" (List.map event_to_json evs))

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ()))

(* --- rollups ------------------------------------------------------ *)

type rollup_row = {
  roll_name : string;
  roll_count : int;
  roll_total_us : float;
}

let rollup ?(key = fun ev -> Some ev.ev_name) () =
  let table : (string, int * float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun ev ->
      if ev.ev_phase = 'X' then
        match key ev with
        | None -> ()
        | Some k ->
          let c, d = Option.value ~default:(0, 0.0) (Hashtbl.find_opt table k) in
          Hashtbl.replace table k (c + 1, d +. ev.ev_dur_us))
    (events ());
  Hashtbl.fold
    (fun k (c, d) acc ->
      { roll_name = k; roll_count = c; roll_total_us = d } :: acc)
    table []
  |> List.sort (fun a b -> compare (b.roll_total_us, a.roll_name) (a.roll_total_us, b.roll_name))

let arg ev k = List.assoc_opt k ev.ev_args
