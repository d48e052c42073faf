(** A small fixed-size domain pool.

    Workers are spawned once ({!create}) and loop over a shared job
    queue guarded by a [Mutex.t]/[Condition.t] pair — no dependency
    beyond the stdlib's [Domain].  Jobs are closures; their results
    come back through {!await}able futures.  Two callers use it:

    - {!map_list}: the paper tables fan independent instances over the
      workers, preserving input order in the result list;
    - {!submit}: the serve daemon runs each session's queued requests
      as jobs, and its watchdog stops an overdue one cooperatively
      through the job's {!Budget} cancellation flag.

    Jobs submitted beyond the worker count queue up and run as workers
    free.  Do not {!await} from inside a pool job of the same pool: a
    worker blocked on a queued job can deadlock the pool. *)

type t

val create : int -> t
(** [create n] spawns [max 1 n] worker domains. *)

val shutdown : t -> unit
(** Finish queued jobs, then join all workers.  Idempotent.
    Submitting after shutdown raises [Invalid_argument]. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool n f] runs [f] with a fresh pool and shuts it down
    afterwards (also on exception). *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue one job and return its future immediately.  Jobs run in
    submission order as workers free up; an exception escaping the job
    is captured and delivered through {!await}, never to the worker.
    @raise Invalid_argument after {!shutdown}. *)

val await : 'a future -> ('a, exn) result
(** Block until the job finishes.  An exception escaping the job comes
    back as [Error]. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  Re-raises the first (in input
    order) exception any job raised, after all jobs finish. *)
