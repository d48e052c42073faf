type t = {
  jobs : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable shutting_down : bool;
  mutable domains : unit Domain.t list;
}

(* Queue pressure, observable under --metrics: the depth gauge is the
   backlog right after a submit (jobs waiting beyond the workers), the
   counter the total jobs ever enqueued. *)
let jobs_submitted = Metrics.counter "pool.jobs_submitted"

let queue_depth = Metrics.gauge "pool.queue_depth"

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.jobs && not pool.shutting_down do
    Condition.wait pool.nonempty pool.mutex
  done;
  if Queue.is_empty pool.jobs then Mutex.unlock pool.mutex (* shutting down *)
  else begin
    let job = Queue.pop pool.jobs in
    Mutex.unlock pool.mutex;
    job ();
    worker_loop pool
  end

let create n =
  let pool =
    { jobs = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      shutting_down = false;
      domains = [] }
  in
  pool.domains <-
    List.init (max 1 n) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  let domains = pool.domains in
  pool.shutting_down <- true;
  pool.domains <- [];
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mutex;
  List.iter Domain.join domains

let with_pool n f =
  let pool = create n in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

let submit pool f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  let run () =
    let result = try Done (f ()) with e -> Failed e in
    Mutex.lock fut.fm;
    fut.state <- result;
    Condition.broadcast fut.fc;
    Mutex.unlock fut.fm
  in
  Mutex.lock pool.mutex;
  if pool.shutting_down then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push run pool.jobs;
  Metrics.incr jobs_submitted;
  Metrics.set queue_depth (float_of_int (Queue.length pool.jobs));
  Condition.signal pool.nonempty;
  Mutex.unlock pool.mutex;
  fut

let await fut =
  Mutex.lock fut.fm;
  while fut.state = Pending do
    Condition.wait fut.fc fut.fm
  done;
  let result = fut.state in
  Mutex.unlock fut.fm;
  match result with
  | Done v -> Ok v
  | Failed e -> Error e
  | Pending -> assert false

let map_list pool f xs =
  let futures = List.map (fun x -> submit pool (fun () -> f x)) xs in
  let results = List.map await futures in
  List.map (function Ok v -> v | Error e -> raise e) results
