(** Presentation Manager and the desktop: user-space shared libraries.

    Per the paper, PM was not in the OS/2 server — it stayed in
    "user-space programs implemented as shared libraries", converted to
    32-bit C.  Window state and message queues live in coerced shared
    memory (same address in every process); drawing drives the screen
    buffer directly from user level.  This is why the paper's graphics
    benchmarks were competitive on WPOS: they hardly touch the kernel. *)


type t
type window

type message = { msg_code : int; msg_param : int }

val create : Mach.Kernel.t -> Os2.t -> t

val win_create :
  t -> Os2.process -> x:int -> y:int -> w:int -> h:int -> window
(** Allocates the window record in the coerced shared arena and maps the
    frame buffer into the owner. *)

val win_post_msg : t -> window -> code:int -> param:int -> unit
(** Asynchronous post: enqueue in shared memory, signal the window's
    semaphore. *)

val win_get_msg : t -> window -> message
(** Block until a message arrives. *)

val gpi_fill : t -> window -> pixel:char -> unit
(** Fill the window's rectangle: user-level compute plus direct frame
    buffer stores — no kernel involvement. *)

val gpi_bitblt : t -> window -> src_bytes:int -> unit
(** Blit [src_bytes] of pixel data through the window (clipped to its
    area). *)

val windows : t -> int
val messages_delivered : t -> int
