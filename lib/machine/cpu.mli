(** The simulated processor: charges each fetch, load, store, device
    write, address-space switch and stall against the cache and TLB
    models, the {!Perf} counters and the cycle clock.

    One [Cpu.t] models one processor.  The clock only moves when a charge
    call runs or when {!advance_to} skips idle time to the next device
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

(** {1 Charges}

    A caller bills a stretch of simulated software as the sequence of
    calls below, one per fetch run, data access or architectural event,
    in program order.  A warm charge allocates at most its new clock
    value. *)

val fetch : t -> Layout.region -> offset:int -> bytes:int -> unit
(** Straight-line execution of [bytes] of instructions starting at
    [region.base + offset]: instructions retire at the base CPI and the
    I-cache and TLB are consulted per line and page.
    @raise Invalid_argument when the run leaves the region. *)

val load : t -> addr:int -> bytes:int -> unit

val store : t -> addr:int -> bytes:int -> unit
(** A load's cache and TLB walk, plus a bus write per stored word: the
    data cache is write-through. *)

val uncached_write : t -> addr:int -> bytes:int -> unit
(** A device store to the uncacheable aperture: a bus transaction per
    word, no cache or TLB access. *)

val switch_address_space : t -> unit
(** A CR3 write: a fixed cost plus a TLB flush. *)

val stall : t -> int -> unit
(** Raw stall cycles (pipeline drain, I/O wait, a message decode). *)

val tlb_shootdown : t -> addr:int -> pages:int -> unit
(** Charge one TLB shootdown covering [pages] pages starting at [addr]:
    an IPI-class fixed cost plus a per-page invalidate.  The zero-copy
    remap paths call this instead of paying per byte. *)

val advance_to : t -> int -> unit
(** Idle (no instructions, no bus traffic) until the given cycle time.
    A no-op if the time is in the past. *)
