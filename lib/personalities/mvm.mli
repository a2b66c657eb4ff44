(** MVM: multiple DOS and Windows 3.1 environments on the microkernel.

    Each virtual DOS machine (VDM) is a microkernel task loaded with
    shared libraries that field the traps the guest generates and talk
    to real drivers through virtual device drivers.  On PowerPC
    configurations MVM also contains the block instruction translator
    that turns Intel code into native code, block by block, caching the
    result.

    Guest binaries are synthetic {!guest_op} programs (the real DOS and
    Windows binaries the project reused are not available — see
    DESIGN.md §5); they exercise the same structure: compute bursts, I/O
    port traps, INT 21h service calls and DPMI mode switches. *)

type t
type vdm

type guest_op =
  | G_compute of int  (** straight-line guest instructions *)
  | G_io_port of int  (** an I/O port access: trapped and reflected *)
  | G_int21_read of int  (** DOS file read of [n] bytes *)
  | G_int21_write of int
  | G_dpmi_switch  (** protected-mode switch *)

val start :
  Mach.Kernel.t -> Mk_services.Runtime.t ->
  ?file_server:Fileserver.File_server.t -> translate:bool -> unit -> t
(** [translate:true] models the PowerPC configuration (block translator
    active); [false] models native x86 execution. *)

val create_vdm : t -> name:string -> vdm

val spawn_program : t -> vdm -> name:string -> guest_op list -> unit
(** Run the guest program on a fresh thread of the VDM task. *)

val guest_instructions : vdm -> int
val blocks_translated : vdm -> int
val translation_hits : vdm -> int
val traps_reflected : t -> int
