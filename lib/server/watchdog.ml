module Budget = Ec_util.Budget

type entry = {
  deadline : float;            (* absolute, Unix.gettimeofday clock *)
  budget : Budget.t;
  mutable active : bool;       (* false once disarmed or fired *)
  mutable fired : bool;
}

type token = entry

type t = {
  lock : Mutex.t;
  mutable entries : entry list;
  mutable stop : bool;
  tick_s : float;
  wake_r : Unix.file_descr;      (* a byte here ends the loop's wait *)
  wake_w : Unix.file_descr;
  mutable domain : unit Domain.t option;
}

let fired_metric = Ec_util.Metrics.counter "serve.watchdog.cancelled"

let cancel_entry e =
  (* Both plain writes go BEFORE the cancel: the atomic store inside
     [Budget.cancel] is what publishes this entry's state to the
     solving domain, so a solve that observes the cancellation is
     guaranteed to read [fired = true] (mapping its stop reason to
     "deadline") and [active = false].  Writing either field after the
     cancel leaves a window where the solve returns Cancelled yet
     still sees the stale value — eclint DS003 flags that shape. *)
  e.fired <- true;
  e.active <- false;
  (* A budget built without its own flag cannot be cancelled; guards in
     the server always carry one, but refusing to raise the shared
     sentinel keeps the module safe for any caller.  The un-publish of
     [fired] on that path is fine: nothing was published. *)
  match Budget.cancel e.budget with
  | () -> Ec_util.Metrics.incr fired_metric
  | exception Invalid_argument _ -> e.fired <- false

let sweep t now =
  Mutex.lock t.lock;
  let expired, live =
    List.partition (fun e -> e.active && e.deadline <= now) t.entries
  in
  List.iter cancel_entry expired;
  t.entries <- List.filter (fun e -> e.active) live;
  Mutex.unlock t.lock

(* Waits one tick, or until [shutdown] writes to the wake pipe. *)
let rec loop t =
  (match Unix.select [ t.wake_r ] [] [] t.tick_s with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  let stop =
    Mutex.lock t.lock;
    let s = t.stop in
    Mutex.unlock t.lock;
    s
  in
  if not stop then begin
    sweep t (Unix.gettimeofday ());
    loop t
  end

let create ?(tick_s = 0.01) () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    { lock = Mutex.create (); entries = []; stop = false; tick_s; wake_r; wake_w;
      domain = None }
  in
  t.domain <- Some (Domain.spawn (fun () -> loop t));
  t

let guard t ~deadline_s budget =
  let e =
    { deadline = Unix.gettimeofday () +. deadline_s;
      budget;
      active = true;
      fired = false }
  in
  Mutex.lock t.lock;
  t.entries <- e :: t.entries;
  Mutex.unlock t.lock;
  e

let disarm t e =
  Mutex.lock t.lock;
  e.active <- false;
  Mutex.unlock t.lock

let fired e = e.fired

let cancel_all t =
  Mutex.lock t.lock;
  List.iter (fun e -> if e.active then cancel_entry e) t.entries;
  t.entries <- [];
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  let d = t.domain in
  t.domain <- None;
  Mutex.unlock t.lock;
  match d with
  | None -> ()
  | Some d ->
    ignore (Unix.write_substring t.wake_w "x" 0 1);
    Domain.join d;
    Unix.close t.wake_r;
    Unix.close t.wake_w
