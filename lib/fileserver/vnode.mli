(* The vnode layer: per-mount file identity above the physical file
   systems.  A vnode names one (mount, file_id) incarnation; the VFS
   interns vnodes per mount so a file resolved twice is the same object,
   and every operation dispatches through the mount's operation
   vector.  A reclaimed vnode rejects further operations with
   [E_bad_handle]; every lifecycle event is mirrored to Machcheck's
   vnode checker when one is installed. *)

(* One mounted file system: its operation vector plus the vnode
   intern table for that mount. *)
type mount

(* One (mount, file_id) incarnation. *)
type t

(* [space] supplies the Machcheck handle (and the server's space id) to
   mirror lifecycle events into; [None] disables the mirroring. *)
val make_mount :
  id:int ->
  space:(unit -> (Check.t * int) option) ->
  Fs_types.pfs ->
  mount

val mount_id : mount -> int
val limits : mount -> Fs_types.format_limits
val pfs : mount -> Fs_types.pfs

val mount : t -> mount
val id : t -> Fs_types.file_id
val is_dir : t -> bool
val refs : t -> int
val reclaimed : t -> bool

(* Intern the vnode for a file id, creating it on first sight.
   Directory-ness is fixed at intern time; id reuse after unlink goes
   through reclaim + re-intern. *)
val intern : mount -> Fs_types.file_id -> t
val find : mount -> Fs_types.file_id -> t option
val root : mount -> t

(* Union-semantics bookkeeping: true the first time this folded name is
   seen on the mount, so a compromise counts once per distinct name. *)
val note_folding : mount -> folded:string -> bool

val ref_ : t -> unit
val unref : t -> unit

(* The file behind the id is gone (unlink): its vnode dies.  Outstanding
   references are legitimate — the holder's next use fails. *)
val reclaim : mount -> Fs_types.file_id -> unit

(* Crash recovery: every vnode of the dead incarnation is reclaimed and
   the checker sweeps for references nobody dropped. *)
val reclaim_all : mount -> unit

val stat : t -> (Fs_types.stat, Fs_types.fs_error) result
val lookup : t -> string -> (Fs_types.file_id, Fs_types.fs_error) result

val create :
  t -> string -> is_dir:bool -> (Fs_types.file_id, Fs_types.fs_error) result

val remove : t -> string -> (unit, Fs_types.fs_error) result
val readdir : t -> (string list, Fs_types.fs_error) result
val read : t -> off:int -> len:int -> (bytes, Fs_types.fs_error) result

val read_paged :
  t -> off:int -> len:int ->
  ((int * int * bytes) option, Fs_types.fs_error) result

val write : t -> off:int -> bytes -> (int, Fs_types.fs_error) result

val rename :
  src:t -> dst:t -> string -> string -> (unit, Fs_types.fs_error) result

(* Pool plumbing is incarnation cleanup, not a file operation: no
   reclaim guard, must work during teardown. *)
val map_pool : t -> Mach.Ktypes.task -> unit
val release_paged : t -> addr:int -> bytes:int -> unit
