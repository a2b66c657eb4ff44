(** The TalOS personality — faithfully unfinished.

    "Initially, the key operating system personality for Workplace OS was
    Taligent's operating system, TalOS … based on … fine-grained objects,
    a C++ implementation, and the same C++ microkernel wrappers.  The
    implementation of the TalOS personality was never finished."

    What exists here is what the project had: the CommonPoint-style
    framework layer (on the fine-grained object runtime, including the
    stateful kernel wrappers the paper blames for extra size and
    complexity), file-system access through the shared file server with
    TalOS semantics, and access to the networking frameworks.  The parts
    that were never finished raise {!Not_finished} — by design. *)

exception Not_finished of string

type t
type application

val start :
  Mach.Kernel.t -> Mk_services.Runtime.t -> Fileserver.File_server.t ->
  unit -> t

val server_task : t -> Mach.Ktypes.task
val frameworks : t -> Finegrain.t
(** The CommonPoint framework runtime (fine-grained, always). *)

val wrapper_state_bytes : t -> int
(** State held by the C++ microkernel wrappers — the paper: "rather than
    being a simple, stateless representation of the kernel interfaces …
    forced them to maintain state". *)

val launch :
  t -> name:string -> (application -> unit) -> application
(** Run a CommonPoint application (a task + framework objects). *)

val file_write :
  t -> application -> path:string -> bytes ->
  (int, Fileserver.Fs_types.fs_error) result
(** TFile-style access: framework dispatch + the shared file server under
    TalOS semantics. *)

val file_read :
  t -> application -> path:string -> bytes:int ->
  (bytes, Fileserver.Fs_types.fs_error) result

val compound_document : t -> 'a
(** @raise Not_finished always. *)

val user_interface : t -> 'a
(** @raise Not_finished always. *)
