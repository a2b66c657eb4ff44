(** The personality-neutral runtime.

    The IBM Microkernel shipped user-level libraries giving
    personality-neutral code an ANSI-C-style runtime, a C-threads-style
    threading package and memory-based synchronizers — essential to
    running servers without a UNIX environment underneath (Mach 3.0 could
    not).  One shared text region backs the library in every task, like a
    real shared library. *)

open Mach.Ktypes

type t

val install : Mach.Kernel.t -> t
(** Lay out the shared library text; idempotent per kernel. *)

val text : t -> Machine.Layout.region

val attach : t -> task -> unit
(** Record the library mapping in the task (shows up in the Figure 1
    inventory). *)

val execute : t -> ?offset:int -> bytes:int -> unit -> unit
(** Charge a stretch of library code (the building block for service
    implementations' user-level work). *)

(** {1 Heap} *)

val malloc : t -> task -> bytes:int -> int
(** Sub-page allocator over a per-task [Vm] heap; returns an address. *)

val free : t -> task -> int -> unit
(** @raise Kern_error [Kern_invalid_argument] on a bad address. *)

val heap_bytes_in_use : t -> task -> int

(** {1 Memory-based synchronizers}

    Fast path entirely in user space; kernel involvement only under
    contention — the cheap complement to {!Mach.Sync}. *)

type umutex

val umutex_create : t -> name:string -> umutex
val umutex_lock : t -> umutex -> unit
val umutex_unlock : t -> umutex -> unit
val umutex_contentions : umutex -> int

(** {1 ANSI C odds and ends} *)

val format_cost : t -> chars:int -> unit
(** The cost of printf-style formatting of [chars] output characters. *)
