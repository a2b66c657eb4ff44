(** The shared memory bus of an SMP machine.

    All CPUs of one {!Machine.t} share one bus.  It models transaction
    occupancy (bounded bus cycles per window of the cycle clock; demand
    past a window's capacity comes back as stall) and write-invalidate
    coherence
    (a directory of last writers per cache line; touching a line another
    CPU wrote costs a cache-to-cache transfer).

    On a 1-CPU machine every entry point is inert — no stalls, no
    directory, no counters — so uniprocessor measurements are identical
    to the pre-SMP cost model. *)

type t

val create : ncpus:int -> t
(** @raise Invalid_argument when [ncpus < 1]. *)

val ncpus : t -> int

val acquire : t -> now:float -> bus_cycles:int -> int
(** [acquire t ~now ~bus_cycles] books a transaction of [bus_cycles]
    issued at CPU-clock [now] and returns the stall cycles the issuing
    CPU must absorb: zero while the surrounding capacity window has
    bandwidth left, the unmet overflow once the window oversubscribes
    (and always 0 on a 1-CPU machine). *)

val note_access : t -> cpu:int -> line:int -> write:bool -> bool
(** Record a data access to [line] (a line-aligned address) by [cpu];
    [true] when it is a coherence miss — the line's last writer was a
    different CPU.  Writes take ownership; reads leave the line shared.
    Always [false] on a 1-CPU machine. *)

val transactions : t -> int
(** Bus transactions arbitrated (multi-CPU machines only). *)

val reset : t -> unit
(** Forget reservations and ownership (cold-start measurement aid). *)
