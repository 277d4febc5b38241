(** A process-wide pool of worker domains for the parallel row loop
    (§IV-C) — the persistent thread team the paper gets from OpenMP.

    Workers start lazily, on the first call that hands a task off, and
    live until the process exits; a process that never hands a task off
    never starts a domain. The pool grows to at most
    [Domain.recommended_domain_count () - 1] workers. *)

val run : (unit -> unit) array -> unit
(** [run tasks] runs every task and returns once all have finished.
    [tasks.(0)] runs on the calling domain; the others are queued for the
    pool, which first grows to [Array.length tasks - 1] workers (within
    the cap). While tasks are outstanding the caller runs any of its own
    that no worker has started, so a call completes even when every
    worker is busy — nested calls (a task that itself calls [run]) and
    concurrent callers cannot deadlock.

    If tasks raise, the first exception recorded is re-raised in the
    caller, with its backtrace, after every task of the call has
    finished. A one-task call runs inline and never touches the pool. *)
