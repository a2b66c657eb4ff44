(** Interrupt controller.

    Handlers are registered per line; raising a line dispatches the
    handler immediately (the simulation has no instruction-granular
    preemption — the handler runs at the next simulation point, which is
    where the event fired).  Raising a line counts one interrupt on the
    controller's CPU and charges nothing: any entry cost is the handler's
    to bill. *)

type t

val create : Cpu.t -> lines:int -> t

val register : t -> line:int -> name:string -> (unit -> unit) -> unit
(** @raise Invalid_argument if the line is out of range or taken. *)

val unregister : t -> line:int -> unit

val raise_line : t -> int -> unit
(** Dispatch the handler for [line]; counts as an interrupt in the perf
    counters.  A raise on an unhandled line counts as spurious and is
    otherwise ignored. *)

val spurious : t -> int
val lines : t -> int
