(** OS/2's commitment-oriented, byte-granularity memory manager, layered
    on the microkernel's page-oriented lazy VM.

    The paper: "The result was essentially two memory management systems,
    with OS/2's built on the microkernel's, which, while workable,
    greatly increased the memory footprint."  This module is that second
    system: it eagerly commits page-rounded arenas underneath (because
    OS/2 programs assume commitment), then sub-allocates at byte
    granularity with its own bookkeeping on top.  Experiment E7 compares
    {!os2_committed_bytes} against what the kernel would have kept
    resident for the same allocation trace under its own lazy rules. *)

type t

val create : Mach.Kernel.t -> Mach.Ktypes.task -> t

val dos_alloc_mem : t -> bytes:int -> (int, Mach.Ktypes.kern_return) result
(** An OS/2 memory object: page-rounded and committed immediately. *)

val dos_sub_alloc : t -> bytes:int -> (int, Mach.Ktypes.kern_return) result
(** Byte-granularity allocation inside a committed arena (grabbing a new
    arena when full). *)

val dos_sub_free : t -> int -> unit

val os2_committed_bytes : t -> int
(** Bytes OS/2's bookkeeping holds committed (page-rounded arenas plus
    object rounding). *)

val user_requested_bytes : t -> int
(** Bytes the application actually asked for. *)

val bookkeeping_bytes : t -> int
(** The second memory manager's own tables — pure overhead over the
    kernel's. *)

val arenas : t -> int
