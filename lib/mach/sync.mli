(** Kernel synchronizers.

    Mach 3.0 had no synchronization primitive other than IPC, which the
    paper calls "too expensive and too hard to program for many uses";
    the IBM Microkernel added kernel-based locks and semaphores (these)
    and memory-based ones (in the personality-neutral runtime, built on
    these for the contended path).

    Every hand-off here keeps simulated time: a semaphore unit carries
    the clock of the signal that made it, and a lock the clocks at which
    its holds were released, and the consumer {!Sched.observe}s that
    stamp.  So on a multi-CPU machine no thread passes a semaphore or
    takes a lock at a simulated time before the signal or release that
    let it through. *)

open Ktypes

type semaphore
type event

val semaphore_create : Sched.t -> name:string -> value:int -> semaphore
val semaphore_wait : Sched.t -> semaphore -> kern_return
(** P: traps into the kernel; blocks when the count is exhausted, and
    observes the stamp of the unit it takes. *)

val semaphore_signal : Sched.t -> semaphore -> unit
(** V: traps; adds a unit stamped with the signaller's clock and wakes
    the longest-waiting thread if any. *)

val semaphore_wait_timeout :
  Sched.t -> semaphore -> timeout:int -> kern_return
(** P with a deadline: [Kern_timed_out] if no signal arrives within
    [timeout] cycles. *)

val semaphore_value : semaphore -> int
val semaphore_waiters : semaphore -> int

(** {2 The lock}

    The kernel's one lock: a FIFO reader/writer lock.  An acquirer joins
    the holders at once only when the lock is free, or when it is held
    shared, wants it shared and nobody queues (a later reader never
    passes a queued writer).  Otherwise it waits in {!Sched.wait} on
    every current holder — the holder list is the only source of the
    lock's wait-for edges — and a release that frees the lock hands it
    to the oldest waiter (and, when that one is shared, to the shared
    waiters directly behind it).  A free acquire is uncharged and
    allocates nothing.  An exclusive acquire then observes the end of
    every hold already released, a shared one the end of every exclusive
    hold already released.  Each finished hold is reported to an
    attached Machcheck ({!Mcheck.lock_hold}). *)

type lock

val lock_create :
  Sched.t -> name:string -> rdesc:string -> rname:string ->
  shared:(thread -> bool) -> lock
(** [name] is the reason a waiter blocks with, ["rdesc(rname)"] the
    lock's name in Machcheck findings (built only when one is attached),
    and [shared th] whether [th] takes it shared. *)

val lock_acquire : lock -> thread -> unit
(** Take the lock for [thread], waiting in the kernel while it
    conflicts.  The caller must not already hold it. *)

val lock_release : lock -> thread -> unit
(** End [thread]'s hold; a no-op when it holds none. *)

val lock_holds : lock -> thread -> bool
val lock_holders : lock -> thread list

(** Per-lock counters: shared and exclusive holds taken, acquires that
    waited, and the cycles they waited — blocked in the kernel plus
    idled up to a release stamp. *)
type lock_stats = {
  ls_shared : int;
  ls_exclusive : int;
  ls_waits : int;
  ls_wait_cycles : int;
}

val lock_stats : lock -> lock_stats

(** {2 Mutexes}

    A mutex is the lock, always held exclusive, taken and dropped
    through a kernel trap. *)

type mutex = lock

val mutex_create : Sched.t -> name:string -> mutex
val mutex_lock : Sched.t -> mutex -> unit
val mutex_unlock : Sched.t -> mutex -> unit
(** @raise Kern_error [Kern_invalid_argument] when unlocked by a thread
    that does not hold it. *)

val event_create : Sched.t -> name:string -> event
val event_wait : Sched.t -> event -> kern_return
(** Block until the next signal/broadcast (no memory of past signals). *)

val event_signal : Sched.t -> event -> unit
val event_broadcast : Sched.t -> event -> unit
val event_waiters : event -> int
