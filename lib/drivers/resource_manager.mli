(** The hardware resource manager (Golub/Sotomayor/Rawson 1993).

    Assigns hardware resources — interrupt lines, I/O port ranges, DMA
    channels — to drivers under a request / yield / grant protocol: a
    driver requests a resource; if another driver holds it, the holder is
    asked to yield; the resource is granted when free.  Conflicting holds
    are impossible by construction and every transition is observable. *)

type t

type resource =
  | Irq_line of int
  | Io_range of { base : int; len : int }
  | Dma_channel of int

type grant

val create : Mach.Kernel.t -> t

val request :
  t -> driver:string -> resource -> ?on_yield:(unit -> bool) -> unit ->
  (grant, string) result
(** [on_yield] is installed as the driver's willingness to give the
    resource up later (default: refuses). *)

val release : t -> grant -> unit

val holder : t -> resource -> string option

val yields_requested : t -> int
val grants_issued : t -> int
