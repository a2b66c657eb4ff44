(** Kernel synchronizers.

    Mach 3.0 had no synchronization primitive other than IPC, which the
    paper calls "too expensive and too hard to program for many uses";
    the IBM Microkernel added kernel-based locks and semaphores (these)
    and memory-based ones (in the personality-neutral runtime, built on
    these for the contended path). *)

open Ktypes

type semaphore
type mutex
type event

val semaphore_create : Sched.t -> name:string -> value:int -> semaphore
val semaphore_wait : Sched.t -> semaphore -> kern_return
(** P: traps into the kernel; blocks when the count is exhausted. *)

val semaphore_signal : Sched.t -> semaphore -> unit
(** V: traps; wakes the longest-waiting thread if any. *)

val semaphore_wait_timeout :
  Sched.t -> semaphore -> timeout:int -> kern_return
(** P with a deadline: [Kern_timed_out] if no signal arrives within
    [timeout] cycles. *)

val semaphore_value : semaphore -> int
val semaphore_waiters : semaphore -> int

val mutex_create : Sched.t -> name:string -> mutex
val mutex_lock : Sched.t -> mutex -> kern_return
val mutex_unlock : Sched.t -> mutex -> unit
(** @raise Kern_error [Kern_invalid_argument] when unlocked by a thread
    that does not hold it. *)

val event_create : Sched.t -> name:string -> event
val event_wait : Sched.t -> event -> kern_return
(** Block until the next signal/broadcast (no memory of past signals). *)

val event_signal : Sched.t -> event -> unit
val event_broadcast : Sched.t -> event -> unit
val event_waiters : event -> int
