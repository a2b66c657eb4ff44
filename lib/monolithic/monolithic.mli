(** The comparator: a traditional in-kernel operating system ("OS/2 Warp
    on Intel") running on the same simulated machine.

    Identical file-system and device code to the multi-server system —
    the same {!Fileserver.Vfs} over the same on-disk formats on the same
    disk model — but service access is a kernel {e trap}: no address-space
    crossing, no server stubs, no scheduler handoff, and exactly one
    kernel/user data copy.  The Table 1 and E5 comparisons are this
    system against the WPOS assembly. *)

open Fileserver.Fs_types

type t

type handle

val boot :
  Machine.t -> ?fs_format:[ `Fat | `Hpfs | `Jfs ] -> ?fs_blocks:int ->
  unit -> t
(** Boot the kernel, format and mount the root volume in-kernel, and
    install swap. *)

val kernel : t -> Mach.Kernel.t
val machine : t -> Machine.t
val vfs : t -> Fileserver.Vfs.t

val spawn_process :
  t -> name:string -> (unit -> unit) -> Mach.Ktypes.task
(** A process: one task, one initial thread running the body. *)

val run : t -> unit

(** {1 System calls}

    Each call charges the trap path plus the in-kernel service body, then
    runs the shared file-system code directly. *)

val sys_open : t -> path:string -> ?create:bool -> unit -> (handle, fs_error) result
val sys_close : t -> handle -> unit
val sys_read : t -> handle -> bytes:int -> (bytes, fs_error) result
val sys_write : t -> handle -> bytes -> (int, fs_error) result
val sys_seek : t -> handle -> pos:int -> unit
val sys_mkdir : t -> path:string -> (unit, fs_error) result
val sys_readdir : t -> path:string -> (string list, fs_error) result
val sys_unlink : t -> path:string -> (unit, fs_error) result
val sys_rename : t -> src:string -> dst:string -> (unit, fs_error) result

val sys_alloc : t -> bytes:int -> int
(** Commitment-oriented allocation (OS/2 style: eager). *)

val sys_touch : t -> addr:int -> ?write:bool -> bytes:int -> unit -> unit

val sys_yield : t -> unit
(** Trap + scheduler yield (PM-tasking style context switch). *)

val open_handles : t -> int
