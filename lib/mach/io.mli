(** I/O support — the component Mach 3.0 lacked entirely.

    Provides what the paper lists: mapping of I/O ports and memory into a
    driver's address space, loading of interrupt handlers, interrupt
    vectoring/revectoring and reflection to user-level device drivers, and
    DMA channel management. *)

open Ktypes

type t
type dma_channel

val create : Sched.t -> t

val map_device_memory : t -> task -> Machine.Layout.region -> unit
(** Make a device aperture accessible to a (driver) task. *)

val device_mapped : task -> Machine.Layout.region -> bool

val attach_user_handler : t -> line:int -> name:string -> unit
(** User-level driver model: interrupts on [line] are reflected out of
    the kernel (entry + reflection cost) and wake whichever driver thread
    is parked in {!next_interrupt}; interrupts arriving with no thread
    parked are counted pending so none are lost. *)

val next_interrupt : t -> line:int -> kern_return
(** Called by a user-level driver thread: block until the next interrupt
    on [line] is reflected.  [Kern_invalid_argument] if the line has no
    user handler attached. *)

val detach : t -> line:int -> unit

val dma_open : t -> channel:int -> dma_channel
val dma_transfer : t -> dma_channel -> bytes:int -> (unit -> unit) -> unit
(** Program a transfer; the completion callback fires from the event
    queue after the simulated transfer time, charging setup now and the
    bus traffic on completion. *)

val pending_reflections : t -> line:int -> int
