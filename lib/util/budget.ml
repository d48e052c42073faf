type reason =
  | Completed
  | Deadline
  | Conflict_budget
  | Node_budget
  | Iteration_budget
  | Cancelled
  | Engine_failure of string * string

let reason_to_string = function
  | Completed -> "completed"
  | Deadline -> "deadline"
  | Conflict_budget -> "conflict-budget"
  | Node_budget -> "node-budget"
  | Iteration_budget -> "iteration-budget"
  | Cancelled -> "cancelled"
  | Engine_failure (engine, detail) ->
    Printf.sprintf "engine-failure(%s: %s)" engine detail

type t = {
  time_s : float option;
  conflicts : int option;
  nodes : int option;
  iterations : int option;
  cancel : bool Atomic.t;
}

(* Shared sentinel: budgets built without an explicit flag all point
   here, so [combine] can tell "no flag" from "a real flag" and
   [cancel] can refuse to raise a flag shared across every budget.
   The flag is atomic so the serve watchdog on another domain can
   raise it and the solving domain observes the store without a data
   race. *)
let never = Atomic.make false

(* Process-wide interrupt line, observed by every gauge alongside the
   budget's own flag.  This is what lets a SIGTERM/SIGINT handler stop
   a solve without holding the budget it runs under (harness workers
   build their own).  One extra atomic load per [check]. *)
let interrupt_line = Atomic.make false

let interrupt () = Atomic.set interrupt_line true

let create ?time_s ?conflicts ?nodes ?iterations ?(cancel = never) () =
  { time_s; conflicts; nodes; iterations; cancel }

let unlimited = create ()

let of_time s = create ~time_s:s ()

let is_unlimited t =
  t.time_s = None && t.conflicts = None && t.nodes = None && t.iterations = None

let cancel t =
  if t.cancel == never then
    invalid_arg "Budget.cancel: budget has no cancellation flag (use ~cancel)";
  Atomic.set t.cancel true

let cancelled t = Atomic.get t.cancel

let min_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

let combine a b =
  { time_s = min_opt a.time_s b.time_s;
    conflicts = min_opt a.conflicts b.conflicts;
    nodes = min_opt a.nodes b.nodes;
    iterations = min_opt a.iterations b.iterations;
    cancel = (if a.cancel == never then b.cancel else a.cancel) }

type counters = {
  spent_conflicts : int;
  spent_nodes : int;
  spent_pivots : int;
  spent_restarts : int;
  spent_iterations : int;
  spent_wall_s : float;
}

let zero =
  { spent_conflicts = 0;
    spent_nodes = 0;
    spent_pivots = 0;
    spent_restarts = 0;
    spent_iterations = 0;
    spent_wall_s = 0.0 }

let add a b =
  { spent_conflicts = a.spent_conflicts + b.spent_conflicts;
    spent_nodes = a.spent_nodes + b.spent_nodes;
    spent_pivots = a.spent_pivots + b.spent_pivots;
    spent_restarts = a.spent_restarts + b.spent_restarts;
    spent_iterations = a.spent_iterations + b.spent_iterations;
    spent_wall_s = a.spent_wall_s +. b.spent_wall_s }

let consume t c =
  let sub limit spent = Option.map (fun l -> max 0 (l - spent)) limit in
  { t with
    time_s = Option.map (fun s -> Float.max 0.0 (s -. c.spent_wall_s)) t.time_s;
    conflicts = sub t.conflicts c.spent_conflicts;
    nodes = sub t.nodes c.spent_nodes;
    iterations = sub t.iterations (c.spent_iterations + c.spent_pivots) }

type gauge = {
  limit : t;
  started : float;
  deadline : float;
      (* absolute; [infinity] when no time allowance, [neg_infinity]
         when the allowance is zero or negative *)
  mutable ticks : int;
}

let tick_granularity = 64

let start t =
  let now = Unix.gettimeofday () in
  { limit = t;
    started = now;
    deadline =
      (match t.time_s with
      | None -> infinity
      | Some s when s <= 0.0 -> neg_infinity
      | Some s -> now +. s);
    ticks = -1 }

let elapsed_s g = Unix.gettimeofday () -. g.started

let over limit spent = match limit with None -> false | Some l -> spent > l

let check ?(conflicts = 0) ?(nodes = 0) ?(iterations = 0) g =
  if Atomic.get g.limit.cancel || Atomic.get interrupt_line then Some Cancelled
  else if over g.limit.conflicts conflicts then Some Conflict_budget
  else if over g.limit.nodes nodes then Some Node_budget
  else if over g.limit.iterations iterations then Some Iteration_budget
  else if g.deadline < infinity then begin
    g.ticks <- g.ticks + 1;
    if g.ticks land (tick_granularity - 1) = 0 && Unix.gettimeofday () > g.deadline
    then Some Deadline
    else None
  end
  else None
