(** Kernel traps — the service-access mechanism Table 2 compares RPC
    against.

    [thread_self] is the exact trap the paper measured: it returns the
    current thread's port and does nothing else.  [service] is the
    generic shape of an in-kernel service call (used by the monolithic
    comparator for its file and device system calls). *)

open Ktypes

val enter : Sched.t -> thread -> Ktext.chunk list -> unit
(** The one trap entry: the thread's user stub, kernel entry, then
    [chunks], all on the thread's kernel stack frame. *)

val leave : Sched.t -> thread -> unit
(** Kernel exit back to the thread's user code. *)

val thread_self : Sched.t -> thread
(** The Table 2 trap: user stub, kernel entry, dispatch, the
    [thread_self] service body, kernel exit. *)

val service : Sched.t -> ?work:(unit -> unit) -> unit -> unit
(** A generic trap into the kernel running [work] (cost of the service
    body itself) between entry and exit. *)
