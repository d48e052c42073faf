(** Structured tracing for the solve stack.

    The solve stack is instrumented {e permanently} — spans around
    every backend solve, flow strategy, fast-EC phase, certification
    pass and preprocessing pass — but recording is off
    by default and each site costs exactly one [Atomic.get] and a
    branch while disabled: no allocation, no clock read.  [ecsat
    --trace FILE] (or a test calling {!enable}) arms recording.

    Domain safety: every domain appends to its own buffer, reached
    through [Domain.DLS]; buffers are also registered in a global
    heap-held list (locked only on a domain's first event and at
    {!events} time) so a pool worker's spans survive the worker's
    death.  There is no per-event locking, hence also no global order
    between domains beyond timestamps.

    Output is Chrome trace-event JSON ({!to_chrome_json}): spans are
    complete ("X") events with microsecond timestamps relative to the
    {!enable} call, one track per domain ([tid] = domain id), loadable
    in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.

    Flush ({!events} / {!to_chrome_json} / {!rollup}) is intended for
    quiescent moments — after [Pool.with_pool] has joined its workers;
    spans still open on a live domain at flush time are simply not in
    the output yet. *)

type event = {
  ev_name : string;                 (** span / instant name, e.g. ["backend.solve"] *)
  ev_cat : string;                  (** coarse grouping, e.g. ["solve"], ["certify"] *)
  ev_ts_us : float;                 (** microseconds since {!enable} *)
  ev_dur_us : float;                (** span duration; [0.] for instants *)
  ev_tid : int;                     (** recording domain's id — the trace track *)
  ev_phase : char;                  (** ['X'] complete span, ['i'] instant *)
  ev_args : (string * string) list; (** key/value annotations *)
}

val enabled : unit -> bool
(** Is recording armed?  The single-atomic-load fast path. *)

val enable : unit -> unit
(** Arm recording and fix the trace epoch (timestamp zero) at now. *)

val disable : unit -> unit
(** Disarm recording; already-buffered events are kept. *)

val reset : unit -> unit
(** Drop all buffered events (recording state is unchanged).  Call
    only while no other domain is recording. *)

val span :
  ?cat:string -> ?args:(string * string) list ->
  ?result_args:('a -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; when recording is armed, a complete
    event covering the call is buffered on the current domain's track.
    [args] annotate unconditionally; [result_args] derives further
    annotations from the result (only evaluated when recording, so
    sites can render counters without paying for it when disabled).
    An exception escaping [f] still closes the span, annotated with
    ["raised"], and is re-raised. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration marker event on the current domain's track. *)

val events : unit -> event list
(** All buffered events from every domain, sorted by timestamp. *)

val to_chrome_json : unit -> string
(** The buffered events as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}]). *)

val write_chrome : string -> unit
(** [write_chrome path] writes {!to_chrome_json} to [path].
    @raise Sys_error if the path is not writable. *)

(** One line of a span rollup: how often a span name occurred and its
    total (inclusive) duration. *)
type rollup_row = {
  roll_name : string;
  roll_count : int;
  roll_total_us : float;
}

val rollup : ?key:(event -> string option) -> unit -> rollup_row list
(** Aggregate buffered spans by [key] (default: the span name; return
    [None] to skip an event), sorted by descending total duration.
    The harness uses this for the per-instance rollups under [ecsat
    tables --trace]. *)

val arg : event -> string -> string option
(** Look up an annotation on an event. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)
