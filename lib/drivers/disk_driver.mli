(** The same disk driver under the three architectures the project used.

    All three serve the same request — read or write N blocks through DMA
    with a completion interrupt — against the machine's disk, so
    experiment E8 can compare architectures on identical work:

    - {b User-level} (the initial design): the driver is a thread in its
      own task; interrupts are reflected out of the kernel to it, and
      clients reach it through RPC.
    - {b In-kernel BSD-style} (kept for networking): a trap enters the
      kernel, the driver runs there, the interrupt is handled in-kernel.
    - {b OODDM} (Taligent): in-kernel, but the driver is a subclass in a
      fine-grained object framework; every step is virtual dispatch
      through the kernel C++ runtime. *)

type t

type arch = User_level | Kernel_bsd | Ooddm

val start :
  Mach.Kernel.t -> Resource_manager.t -> arch:arch -> (t, string) result
(** Claims the disk's IRQ line and DMA channel from the resource manager
    and brings the driver online. *)

val arch : t -> arch

val read_blocks : t -> block:int -> count:int -> bytes
(** Synchronous read from the calling thread. *)

val write_blocks : t -> block:int -> bytes -> unit

val requests : t -> int
val interrupts_taken : t -> int
val driver_task : t -> Mach.Ktypes.task option
(** The driver task ([Some] only for the user-level architecture). *)

val port : t -> Mach.Ktypes.port option
(** The current service port ([Some] only for user-level). *)

val arm_faults : Mach.Kernel.t -> Machine.Disk.t -> unit
(** Install a write interceptor on the disk that consults the kernel's
    fault plan ([sys.faults]) at every media write, mapping
    {!Mach.Fault.disk_decision}s to device faults (power-cut, torn
    write, bit-rot, bounded reordering).  With no plan installed every
    write passes untouched. *)

val disarm_faults : Machine.Disk.t -> unit
