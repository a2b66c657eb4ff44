(** The OS/2 personality.

    Structure per the paper: an OS/2 {e server} provides the kernel
    implementation (process table, exec, system queries); each OS/2
    process is a microkernel task whose program is loaded together with
    shared libraries holding the RPC stubs — and, "wherever possible,
    some of the function was actually implemented in the libraries
    themselves to reduce the amount of interaction with the microkernel
    and other servers".  Concretely: file calls go straight from the
    doscalls library to the file server (OS/2 semantics), memory calls
    run entirely in-library on {!Os2_memory}, and only process-lifetime
    calls cross to the OS/2 server. *)

open Mach.Ktypes

type t
type process

val start :
  Mach.Kernel.t -> Mk_services.Runtime.t -> Fileserver.File_server.t ->
  ?name_service:Mk_services.Name_service.t -> unit -> t
(** Create the OS/2 server task and register it with the name service
    when one is given. *)

val server_task : t -> task
val server_port : t -> port

val create_process :
  t -> name:string -> entry:(process -> unit) -> process
(** [DosExecPgm]: an RPC to the OS/2 server, which builds the task, the
    shared-library mappings and the main thread. *)

val process_task : process -> task
val process_count : t -> int

(** {1 Doscalls (the in-library API)} *)

val dos_open :
  t -> process -> path:string -> ?create:bool -> unit ->
  (Fileserver.File_server.Client.handle, Fileserver.Fs_types.fs_error) result

val dos_read :
  t -> process -> Fileserver.File_server.Client.handle -> bytes:int ->
  (bytes, Fileserver.Fs_types.fs_error) result

val dos_write :
  t -> process -> Fileserver.File_server.Client.handle -> bytes ->
  (int, Fileserver.Fs_types.fs_error) result

val dos_close : t -> process -> Fileserver.File_server.Client.handle -> unit

val dos_delete :
  t -> process -> path:string -> (unit, Fileserver.Fs_types.fs_error) result

val dos_alloc_mem : t -> process -> bytes:int -> (int, kern_return) result
val dos_exit : t -> process -> unit
(** Terminate the process's task and drop it from the process table
    (an RPC to the server). *)
