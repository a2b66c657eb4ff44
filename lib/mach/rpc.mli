(** The IBM RPC rework of Mach IPC.

    The changes the paper enumerates: no reply ports, synchronous
    delivery and reply, threads block to send/receive, no message
    queuing (calls queue as blocked threads, not buffered messages),
    data too large for the message body passed by reference with a
    single physical copy from sender to receiver, simplified stubs and
    server loops, [mach_msg] removed.

    A call hands off directly to a waiting server thread — one homed on
    the caller's CPU when there is one (no IPI, no cross-CPU wake), else
    the one waiting longest; calls themselves are served in arrival
    order.  The scheduler
    charges the two address-space switches of the round trip, which is
    where Table 2's bus-cycle and CPI story comes from. *)

open Ktypes

val call :
  Sched.t -> port -> ?reply_bytes:int -> ?deadline:int -> message_builder ->
  (message, kern_return) result
(** Synchronous call from the current thread: request crosses with one
    physical copy, the caller blocks, the reply (of [reply_bytes] inline
    size, default whatever the server builds) crosses back with one
    copy.  With [deadline] the call is abandoned after that many cycles
    ([Error Kern_timed_out]); an abandoned exchange is marked so a
    server that later picks it up neither processes it nor wakes the
    client out of an unrelated wait. *)

val call_retry :
  Sched.t -> ?attempts:int -> ?deadline:int -> ?backoff:int ->
  resolve:(unit -> port option) -> message_builder ->
  (message, kern_return) result
(** {!call} inside the shared client retry loop {!Backoff.retry}:
    re-resolve, call with a deadline, back off and retry on a crashed or
    silent server. *)

val receive : Sched.t -> port -> (rpc_exchange, kern_return) result
(** Server side: block until a call arrives. *)

val reply : Sched.t -> rpc_exchange -> message_builder -> unit
(** Complete an exchange: copy the reply to the client and wake it. *)

val reply_receive :
  Sched.t -> rpc_exchange -> message_builder -> port ->
  (rpc_exchange, kern_return) result
(** Reply to one exchange and receive the next in a single kernel entry —
    the primitive a synchronous-handoff server loop runs on. *)

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
    supervisor's watchdog. *)

val waiting_servers : port -> int
val pending_calls : port -> int
