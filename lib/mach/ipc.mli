(** The Mach 3.0 IPC implementation ([mach_msg]).

    Queued, asynchronous message passing with reply ports: a send copies
    the inline body into a kernel buffer, transfers port rights, sets up
    copy-on-write shadows for out-of-line regions, and enqueues; a
    receive dequeues and copies out.  A client/server interaction is two
    full messages plus reply-port management.  This is the code the IBM
    project rewrote into {!Rpc}; both are kept so the 2–10× improvement
    claim can be measured (experiment E3). *)

open Ktypes

val send :
  Sched.t -> port -> ?reply_to:port -> message_builder -> kern_return
(** Asynchronous send from the current thread's task.  Blocks while the
    destination queue is full. *)

val receive : Sched.t -> port -> (message, kern_return) result
(** Blocking receive into the current thread's task.  Charges copy-out of
    the inline body and maps out-of-line regions copy-on-write (their copy
    cost lands on first touch, per Mach's virtual-copy strategy). *)

val call :
  Sched.t -> ?deadline:int -> port -> message_builder ->
  (message, kern_return) result
(** The classic client round trip: send the request carrying a reply
    port, receive on it.  The reply port comes from a per-thread cache —
    allocated on first use (or after the cached port dies) and reused on
    every later call, replacing the per-interaction allocate/destroy tax
    with a cheap lookup.  With [deadline] the round trip is abandoned
    after that many cycles ([Error Kern_timed_out]); any failed call
    retires the cached reply port so a late reply cannot be mistaken for
    the answer to the next call. *)

val call_retry :
  Sched.t -> ?attempts:int -> ?deadline:int -> ?backoff:int ->
  resolve:(unit -> port option) -> message_builder ->
  (message, kern_return) result
(** {!call} inside the shared client retry loop {!Backoff.retry}:
    re-resolve, call with a deadline, back off and retry on a crashed or
    silent server. *)

val reply_cache_hits : Sched.t -> int
(** Calls that reused the calling thread's cached reply port. *)

val reply_cache_misses : Sched.t -> int
(** Calls that had to allocate a reply port (first call of a thread, or
    cached port found dead). *)

val serve_one : Sched.t -> port -> (message -> message_builder) -> kern_return
(** Server side of one interaction: receive a request, run the handler,
    send its result to the request's reply port.  A handler raising
    [Kern_error] produces a [P_error] reply instead of propagating. *)

val serve : Sched.t -> port -> (message -> message_builder) -> unit
(** Serve forever, exiting only when the *service* port dies.  Per-call
    failures — a dead client reply port, a full reply queue, a handler
    error — are absorbed and the loop keeps going.  Honours the
    system's fault plan: an injected crash abandons the request in hand
    and destroys the service port. *)
