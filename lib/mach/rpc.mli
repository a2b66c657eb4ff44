(** The IBM RPC rework of Mach IPC.

    The changes the paper enumerates: no reply ports, synchronous
    delivery and reply, threads block to send/receive, no message
    queuing (calls queue as blocked threads, not buffered messages),
    data too large for the message body passed by reference with a
    single physical copy from sender to receiver, simplified stubs and
    server loops, [mach_msg] removed.

    A call hands off directly to a waiting server thread — one homed on
    the caller's CPU when there is one (no IPI, no cross-CPU wake), else
    the one waiting longest.  Ordered calls (the default) are served in
    arrival order.  A call made with [~commutes:true] only reads, so it
    may be served out of that order: it is left to the serve thread
    homed on the caller's CPU, and any other server takes it only while
    that CPU has no live serve thread or its serve threads are all
    blocked outside receive (on the disk, on a lock, wedged).  The
    scheduler
    charges the two address-space switches of the round trip, which is
    where Table 2's bus-cycle and CPI story comes from. *)

open Ktypes

val call :
  Sched.t -> port -> ?deadline:int -> ?commutes:bool ->
  message_builder -> (message, kern_return) result
(** Synchronous call from the current thread: request crosses with one
    physical copy, the caller blocks, the reply crosses back with one
    copy.  With [deadline] the call is abandoned after that many cycles
    ([Error Kern_timed_out]); an abandoned exchange is marked so a
    server that later picks it up neither processes it nor wakes the
    client out of an unrelated wait.  [commutes] (default [false]) marks
    a call that commutes with every other call on the port. *)

val call_retry :
  Sched.t -> ?attempts:int -> ?deadline:int -> ?backoff:int ->
  ?commutes:bool -> resolve:(unit -> port option) -> message_builder ->
  (message, kern_return) result
(** {!call} inside the shared client retry loop {!Backoff.retry}:
    re-resolve, call with a deadline, back off and retry on a crashed or
    silent server. *)

val receive : Sched.t -> port -> (rpc_exchange, kern_return) result
(** Server side: block until a call this thread may take arrives. *)

val next_call : port -> thread -> rpc_exchange option
(** The dequeue rule {!receive} applies: remove and return the oldest
    pending call that is ordered, or was made from the taking thread's
    home CPU, or comes from a CPU no registered serve thread will serve
    (none live, or all blocked outside receive).  Allocates nothing. *)

val reply : Sched.t -> rpc_exchange -> message_builder -> unit
(** Complete an exchange: copy the reply to the client and wake it. *)

val serve :
  Sched.t -> ?beat:Health.beat -> port -> (message -> message_builder) -> unit
(** Simple server loop: receive, handle, reply, forever — exiting only
    when the *service* port dies.  A single client's failure (abort,
    timeout) is absorbed and the loop keeps going; a handler raising
    [Kern_error] produces a [P_error] reply.  Honours the system's
    fault plan: an injected crash abandons the exchange in hand and
    destroys the service port; an injected wedge holds the request in
    hand for the scripted cycles before continuing.  With [beat] the
    loop stamps the server's {!Health.beat} — its own busy-since slot on
    dequeue, the shared served count on reply — feeding the
    supervisor's watchdog.  The calling thread registers as one of the
    port's serve threads, whose home CPUs the dequeue rule consults. *)

val pending_calls : port -> int

val served_local : port -> int
(** Calls a server took on the CPU their client called from. *)

val served_crossed : port -> int
(** Calls a server took on another CPU. *)
