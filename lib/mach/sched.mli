(** Threads, tasks and the scheduler.

    Simulated threads are OCaml-5 effect-based coroutines: a thread body
    performs {!block} / {!yield} effects at kernel interaction points and
    the scheduler resumes it later.  Every dispatch of a different thread
    charges the scheduler-pick and context-switch chunks; crossing an
    address space additionally charges the pmap switch and flushes the
    TLB — the costs at the heart of the paper's evaluation.

    On a multi-CPU machine ([Config.ncpus] > 1) every CPU owns a run
    queue and a message queue, after DragonFly BSD's LWKT design: only
    the owning CPU mutates a thread's scheduling state, and cross-CPU
    wakeups and teardowns travel as asynchronous messages
    (one IPI per empty->nonempty queue transition), each stamped with
    the sender's clock.  The target takes a message at its first
    dispatch whose clock has reached the stamp: a busy CPU keeps running
    its own threads while a later-stamped message is in flight, and
    only an idle CPU skips its clock ahead, to the earliest stamp.  The
    simulation interleaves CPUs conservatively: the runnable CPU furthest
    behind in simulated time dispatches next, and an idle CPU that is
    strictly behind steals the newest unbound thread from the most
    loaded queue.  Every thread carries a ready stamp — the clock at
    which it last became runnable or stopped running — and a CPU behind
    that stamp idles up to it before dispatching the thread, so a thief
    never runs a stolen thread earlier than it became runnable.  Every
    such skip is one rule, {!observe}, which the kernel's other
    hand-offs (locks, semaphores, pending calls, queued messages) use
    too.  With
    one CPU all of this machinery is inert and the scheduler behaves — cycle for
    cycle — like the original uniprocessor one.

    The [t] value is the kernel's core state: per-CPU queues, id
    counters, task list, the virtual-address arena and the physical page
    pool used by {!Vm}. *)

open Ktypes

(** Cross-CPU scheduler message (exposed for tests/diagnosis). *)
type xmsg =
  | X_wake of { xth : thread; xresult : kern_return; sent_at : float }
  | X_teardown of { xtid : int; sent_at : float }

type percpu = {
  pc_id : int;
  pc_runq : thread Queue.t;
  pc_ipiq : xmsg Queue.t;
  mutable pc_next_at : float;  (* earliest stamp in pc_ipiq; infinity if none *)
  mutable pc_last : thread option;  (* last thread dispatched here *)
  mutable pc_switches : int;
  mutable pc_steals : int;  (* threads this CPU stole while idle *)
  mutable pc_xmsgs : int;  (* cross-CPU messages processed here *)
}

type t = {
  machine : Machine.t;
  ktext : Ktext.t;
  percpu : percpu array;
  mutable active : int;  (* CPU currently dispatching; 0 on a uniprocessor *)
  mutable current : thread option;
  mutable next_task_id : int;
  mutable next_thread_id : int;
  mutable next_port_id : int;
  mutable next_obj_id : int;
  mutable next_map_id : int;
  mutable tasks : task list;
  default_pset : processor_set;  (* this system's default processor set *)
  mutable vnext : int;  (* next free virtual address *)
  mutable page_limit : int;  (* physical frames available for paging *)
  mutable pages_resident : int;
  resident_fifo : (vm_object * int) Queue.t;
  mutable default_backing : backing_store option;
  mutable switches : int;
  mutable charge_switches : bool;
  mutable fault_count : int;
  mutable reply_cache_hits : int;  (* Ipc.call reused the cached port *)
  mutable reply_cache_misses : int;  (* Ipc.call had to allocate one *)
  mutable faults : Fault.t option;  (* fault-injection plan, None = off *)
  mutable retry_attempts : int;  (* re-issues performed by call_retry *)
  mutable checks : Check.t option;  (* Machcheck attachment, None = off *)
  mutable check_space : int;  (* this boot's id space at the checker *)
}

val create : Machine.t -> Ktext.t -> t
(** If a checker is globally installed ([Check.install]), the new system
    attaches itself to it; otherwise checking is off and every hook costs
    one [None] match.  One [percpu] slot is built per machine CPU. *)

val ncpus : t -> int

val enable_checks : t -> Check.t -> unit
(** Attach Machcheck to an already-booted system: registers a fresh id
    space for the scheduler's rights/deadlock events and attaches the
    buffer sanitizer to the kernel text's free list. *)

val task_create :
  t -> name:string -> ?personality:string -> ?text_bytes:int ->
  ?data_bytes:int -> unit -> task
(** Allocate a task: an address map, a port space, a text region and a
    data (stack) region. *)

val task_halt : t -> task -> unit
(** Terminate every thread of the task and mark it halted. *)

val thread_spawn :
  t -> task -> name:string -> ?affinity:int -> ?bound:bool ->
  (unit -> unit) -> thread
(** Create a runnable thread executing the body.  [affinity] homes it on
    that CPU's run queue (default: the CPU the creator is running on);
    [bound] pins it there — a bound thread is never stolen or migrated. *)

val self : unit -> thread
(** Current thread; must be called from inside a thread body.
    @raise Failure outside thread context. *)

val block : string -> kern_return
(** Block the calling thread; returns the [wake_result] set by the waker
    ([Kern_success] by default, [Kern_timed_out] for timer wakeups). *)

val yield : unit -> unit

val now : t -> float
(** The exact clock of the CPU now executing: the stamp a producer
    publishes with what it hands over. *)

val observe : t -> float -> unit
(** [observe t stamp]: the one rule for simulated time.  The executing
    CPU consumes something a producer published at [stamp]; when its
    clock is behind the stamp it idles up to it, uncharged.  Every clock
    skip in the kernel goes through here: the ready stamp at dispatch,
    an idle CPU's skip to its earliest scheduler message, and the
    stamps on lock releases, semaphore units, pending RPC calls and
    queued IPC messages.  On one CPU it never moves a clock. *)

val wake : t -> ?result:kern_return -> thread -> unit
(** Make a blocked thread runnable.  When the waker runs on the thread's
    owning CPU this is a plain enqueue; otherwise it posts an [X_wake]
    message (plus an IPI if the target's queue was empty) and the owning
    CPU flips the thread runnable at its first dispatch at or after the
    send stamp.  A disk or timer handler wakes from the boot CPU, under
    whichever [active] the last dispatch left; a handler run through
    {!interrupt_on} wakes from the CPU it was steered to.  No-op for
    running/terminated threads. *)

val interrupt_on : t -> cpu:int -> at:int -> (unit -> unit) -> unit
(** [interrupt_on t ~cpu ~at handler] runs a device event's handler as
    CPU [cpu], the way RSS steers a receive queue's interrupt: the
    machine ({!Machine.interrupt_on}) and the scheduler both name [cpu]
    active while [handler] runs, the CPU idles uncharged up to [at] when
    it is behind, and both active CPUs are restored afterwards.  A wake
    the handler makes of a thread homed on [cpu] is a local enqueue
    stamped with [cpu]'s clock. *)

val await : t -> string -> (('a -> unit) -> unit) -> 'a
(** [await t reason start] calls [start k] to begin an asynchronous
    operation (a disk request, a page-in) whose completion calls [k v],
    then {!block}s the calling thread with [reason] until [k] has run,
    and returns [v].  A completion that runs before [start] returns
    costs no block; a wake from anything else blocks again.  Called
    outside any thread (boot-time mounts and replays), it instead steps
    the machine's device events on the boot CPU, whose clock pays for
    the wait, until [k] has run.  Never call it from a device
    completion or event-queue closure.
    @raise Failure outside a thread if the event queue empties before
    [k] has run (the message names [reason]). *)

val dequeue_waiter : thread -> thread Queue.t -> unit
(** Remove every entry for the thread from a wait queue (used when a
    blocked operation gives up, so a later wake cannot target it). *)

val wake_one : t -> thread Queue.t -> bool
(** Pop entries off the wait queue until one names a blocked thread and
    wake it; [false] if the queue held none. *)

val wake_home : t -> thread Queue.t -> cpu:int -> bool
(** Wake the oldest blocked waiter homed on [cpu]; [false] if the queue
    holds none. *)

val wake_one_on : t -> thread Queue.t -> cpu:int -> bool
(** {!wake_one}, but a blocked waiter homed on [cpu] goes first: its
    wake is a local enqueue rather than a cross-CPU message.  On a
    uniprocessor every waiter is homed on the one CPU, so it wakes the
    thread {!wake_one} would. *)

val wait :
  t -> ?q:thread Queue.t -> thread -> rdesc:string -> rname:string ->
  holders:int list -> string -> kern_return
(** The kernel's one blocking wait, which every IPC, RPC and synchronizer
    wait goes through: add the thread to [q] unless already queued,
    report the wait-for edge on the resource named ["rdesc(rname)"]
    (built only when a Machcheck is attached; unblockable
    by the [holders] thread ids) to an attached Machcheck, {!block} with
    [reason], and withdraw the edge on wake.  On any result but
    [Kern_success] the thread is also removed from [q]. *)

val terminate : t -> thread -> unit
(** Kill a thread.  Killing a thread homed on another CPU additionally
    posts an [X_teardown] message so the owning CPU pays the reap cost. *)

val run : t -> unit
(** Drive the system: dispatch runnable threads (across every CPU); when
    none are runnable and no messages are in flight, advance the machine
    clock to the next device event; stop when neither threads nor events
    remain. *)

val run_until : t -> (unit -> bool) -> bool
(** Like {!run} but stops early once the predicate holds between
    dispatches; returns whether the predicate held. *)

val total_steals : t -> int
(** Work-stealing grabs performed by idle CPUs, summed over CPUs. *)

val total_xmsgs : t -> int
(** Cross-CPU scheduler messages processed, summed over CPUs. *)

val virtual_alloc : t -> bytes:int -> int
(** Carve a range from the global virtual arena (all address spaces share
    one arena so that coerced memory naturally has one address). *)

val with_uncharged : t -> (unit -> 'a) -> 'a
(** Run a setup action with context-switch charging disabled (boot-time
    plumbing that should not perturb measurements). *)
