(** Memory-mapped display adapter.

    The frame buffer lives in the uncacheable device aperture; stores to
    it are bus transactions.  Table 1's graphics workloads "ran primarily
    at user level in shared libraries and directly drove the screen
    buffer" — this device is what they drive, on both the monolithic and
    the WPOS machine. *)

type t

val create : Layout.t -> width:int -> height:int -> t

val region : t -> Layout.region
val width : t -> int

val fill_rect :
  t -> Cpu.t -> x:int -> y:int -> w:int -> h:int -> pixel:char -> unit
(** Executes the uncached stores for the rectangle on the given CPU, the
    one executing the drawing code, and records the pixels (one byte per
    pixel). *)

val blit_row : t -> Cpu.t -> x:int -> y:int -> string -> unit

val pixel : t -> x:int -> y:int -> char
(** @raise Invalid_argument when out of bounds. *)

val pixels_written : t -> int
