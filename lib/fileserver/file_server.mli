(** The personality-neutral file server.

    A separate user-level task exposing generic file services over
    {!Mach.Rpc}, with the traits the paper calls out: an extended vnode
    architecture underneath ({!Vfs} over FAT/HPFS/JFS), heavy use of
    ports to manage open files (one port per open file), and
    mapped-buffer data sharing with clients as an alternative to copying
    reads.

    {!Client} is the stub library personalities link against; its calls
    run from the calling thread's task and block for the RPC round trip
    (and any disk I/O the server performs). *)

open Fs_types

type t

val start :
  Mach.Kernel.t -> Mk_services.Runtime.t -> Vfs.t -> ?server_threads:int ->
  unit -> t
(** Create the file-server task, its health thread and [server_threads]
    serve threads (default: one per CPU), serve thread [i] bound to CPU
    [(i - 1) mod ncpus].  A serve thread holds each mount lock it takes
    from its request's first locked entry until the reply is built:
    shared for a request that only reads ([open] without create, the
    reads, [seek], [close], path [stat] and [readdir]), exclusive for
    every other.  The {!Client} stubs make the read-only requests as
    commuting RPC calls, served by the serve thread on the caller's
    CPU; the others keep the RPC layer's arrival order. *)

val restart : t -> Mach.Ktypes.port
(** Bring a crashed instance back up: the open-file table is lost (as a
    real crash would lose it — stale handles return [E_bad_handle]),
    pool pages pinned by in-flight zero-copy replies are reclaimed, the
    mounted volumes run crash recovery ({!Vfs.recover} — journal replay
    plus invariant scan where the format supports them), a fresh service
    port is allocated and new serve threads started.  Returns the new
    port, for re-registration; the supervisor's [restart] closure is the
    intended caller. *)

val set_retry :
  t -> ?attempts:int -> ?deadline:int -> ?backoff:int ->
  resolve:(unit -> Mach.Ktypes.port option) -> unit -> unit
(** Route all {!Client} stub calls through {!Mach.Rpc.call_retry}:
    [resolve] (typically a name-service lookup) finds the current
    service port before each attempt, so clients survive a crash-and-
    restart under supervision. *)

val port : t -> Mach.Ktypes.port

(** The current incarnation's heartbeat port: a dedicated thread answers
    {!Mach.Health.H_ping} from the serve loops' beat, so the
    supervisor's watchdog can tell a wedged server from a busy one.
    Reallocated (with a fresh beat) on every {!restart}. *)
val health_port : t -> Mach.Ktypes.port
val task : t -> Mach.Ktypes.task
val vfs : t -> Vfs.t
val open_files : t -> int
val requests_served : t -> int

val last_recovery : t -> Fs_types.recover_report option
(** The merged recovery report from the most recent {!restart}. *)


val map_file :
  t -> Vfs.semantics -> Mach.Ktypes.task -> path:string ->
  (int * int, fs_error) result
(** Memory-map a file into the task: the returned [(address, size)] range
    is backed by the file server acting as the file's external pager —
    first touch of each page performs the (simulated) file read, dirty
    evictions write back through the file system.  The "aggressive memory
    mapping techniques to buffer file data" of the paper's file server. *)

val mapped_pageins : t -> int

module Client : sig
  type handle

  val open_ :
    t -> Vfs.semantics -> path:string -> ?create:bool -> unit ->
    (handle, fs_error) result
  (** Opening returns a dedicated port for the file; the server deposits
      a send right in the caller's port space. *)

  val close : t -> handle -> unit
  val read : t -> handle -> bytes:int -> (bytes, fs_error) result
  (** Copying read at the handle's position (advances it). *)

  val read_mapped : t -> handle -> bytes:int -> (int, fs_error) result
  (** Mapped-buffer read: the first call maps the server's buffer object
      into the client (one map operation); subsequent reads avoid the
      data copy.  Returns bytes made available. *)

  val read_zc : t -> handle -> bytes:int -> (bytes, fs_error) result
  (** Zero-copy read: the server assembles whole blocks into block-cache
      pool pages and the reply COW-remaps those pages into the client —
      the data never crosses the message as a copy.  The pool pages stay
      pinned until the next request on the handle (or close).  Falls
      back to the copying path when the position is unaligned, the pool
      is exhausted, or the format cannot serve it. *)

  val write_zc : t -> handle -> bytes -> (int, fs_error) result
  (** Zero-copy write: the data is staged in a fresh page-aligned buffer
      which the request donates to the server by remap-move. *)

  val write : t -> handle -> bytes -> (int, fs_error) result
  val seek : t -> handle -> pos:int -> unit
  val stat : t -> Vfs.semantics -> path:string -> (stat, fs_error) result
  val mkdir : t -> Vfs.semantics -> path:string -> (unit, fs_error) result
  val readdir :
    t -> Vfs.semantics -> path:string -> (string list, fs_error) result
  val unlink : t -> Vfs.semantics -> path:string -> (unit, fs_error) result
  val rename :
    t -> Vfs.semantics -> src:string -> dst:string -> (unit, fs_error) result
  val sync : t -> unit
end
