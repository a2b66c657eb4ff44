(** Capped exponential backoff with deterministic jitter.

    The one retry schedule shared by the client retry loop {!retry}
    (behind {!Ipc.call_retry} and {!Rpc.call_retry}) and the
    supervisor's restart pacing.  The raw
    schedule is [base * 2^(attempt-1)] saturating at [base * 64], i.e.
    six doublings — no more unbounded doubling that sleeps past any
    plausible recovery; on top of it each waiter gets
    jitter in [0, wait/4) from a drand48 generator keyed on [seed] and
    the attempt number — deterministic for replay, but different seeds
    (thread ids, supervision entries) spread their retries instead of
    stampeding a reincarnating server in lockstep. *)

type policy

val policy : ?seed:int -> base:int -> unit -> policy

val delay : policy -> attempt:int -> int
(** The capped exponential for this attempt (1-based) plus its seeded
    jitter. *)

val retry :
  Sched.t -> ?attempts:int -> ?deadline:int -> ?backoff:int ->
  resolve:(unit -> Ktypes.port option) ->
  (Ktypes.port -> deadline:int -> ('a, Ktypes.kern_return) result) ->
  ('a, Ktypes.kern_return) result
(** The one bounded-retry client loop for surviving server crashes.
    Before every attempt it re-resolves the destination via [resolve] (a
    name-service lookup); each attempt runs the call with [deadline]
    cycles (default 100k).  On a retryable failure ([Kern_port_dead],
    [Kern_timed_out], [Kern_aborted]) it sleeps {!delay} of a policy with
    base [backoff] cycles (default 1k, so capped at 64k plus jitter),
    seeded by the calling thread's id, and tries again, up to [attempts]
    total tries (default 4).  Gives up with the last error.  Re-issues
    are counted in [sys.retry_attempts] and charged as a user-level
    retry stub. *)
