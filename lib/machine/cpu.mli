(** The simulated processor: replays {!Footprint.t} values against the
    cache and TLB models and charges {!Perf} counters and the cycle clock.

    One [Cpu.t] models one processor.  The clock only moves when footprints
    execute or when {!advance_to} skips idle time to the next device
    event. *)

type t

val create : ?id:int -> ?bus:Bus.t -> Config.t -> t
(** [id] is the processor index within its machine (default 0); [bus] is
    the shared bus — when omitted a private 1-CPU bus is built, which
    makes every SMP effect inert. *)

val config : t -> Config.t
val id : t -> int
val bus : t -> Bus.t
val perf : t -> Perf.t

val now : t -> int
(** Current time in cycles, rounded to nearest.  The clock itself
    accumulates in float so sub-cycle charges (e.g. the 0.5-cycle store
    penalty) are never lost to truncation. *)

val now_exact : t -> float
(** The unrounded clock. *)

val execute : t -> Footprint.t -> unit
val execute_item : t -> Footprint.item -> unit

(** {1 Direct execution}

    The same cost charging as {!execute}, without building footprint
    lists — the kernel-path replay (Ktext) uses these so a warm
    simulated hot path performs no host allocation. *)

val fetch : t -> Layout.region -> offset:int -> bytes:int -> unit
val load : t -> addr:int -> bytes:int -> unit
val store : t -> addr:int -> bytes:int -> unit

val tlb_shootdown : t -> addr:int -> pages:int -> unit
(** Charge one TLB shootdown covering [pages] pages starting at [addr]:
    an IPI-class fixed cost plus a per-page invalidate.  The zero-copy
    remap paths call this instead of paying per byte. *)

val advance_to : t -> int -> unit
(** Idle (no instructions, no bus traffic) until the given cycle time.
    A no-op if the time is in the past. *)
