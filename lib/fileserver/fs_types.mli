(* Common file-system types shared by the physical file systems, the
   vnode layer and the file server: error vocabulary, per-format
   semantics profiles, the physical-operation record, and the journal
   wrapper over it. *)

type fs_error =
  | E_not_found
  | E_exists
  | E_no_space
  | E_name_too_long
  | E_bad_name
  | E_not_dir
  | E_is_dir
  | E_dir_not_empty
  | E_bad_handle
  | E_read_only
  | E_io of string

val fs_error_to_string : fs_error -> string

type file_id = int

type stat = {
  st_id : file_id;
  st_size : int;
  st_is_dir : bool;
  st_blocks : int;
}

(* Semantics profile of a physical file system: the constraints the
   on-disk format imposes on the logical layer (the paper's point about
   FAT's 8.3 names). *)
type format_limits = {
  fl_format : string;
  fl_max_name : int;
  fl_case_sensitive : bool;
  fl_preserves_case : bool;
  fl_eight_dot_three : bool;
  fl_journalled : bool;
}

(* What a physical file system reports after crash recovery. *)
type recover_report = {
  rr_journal_txns : int;
  rr_journal_blocks : int;
  rr_fsck_findings : string list;
}

val clean_recovery : recover_report
val merge_recovery : recover_report -> recover_report -> recover_report

(* A mount's lock, installed by {!serialized}. *)
type mount_lock

(* The physical-file-system operations record — the extended vnode
   architecture's per-format plug.  Each format builds one per mount;
   the vnode layer dispatches through it. *)
type pfs = {
  pfs_limits : format_limits;
  pfs_root : file_id;
  pfs_lookup : dir:file_id -> string -> (file_id, fs_error) result;
  pfs_create :
    dir:file_id -> string -> is_dir:bool -> (file_id, fs_error) result;
  pfs_remove : dir:file_id -> string -> (unit, fs_error) result;
  pfs_readdir : dir:file_id -> (string list, fs_error) result;
  pfs_stat : file_id -> (stat, fs_error) result;
  pfs_read : file_id -> off:int -> len:int -> (bytes, fs_error) result;
  pfs_map_pool : Mach.Ktypes.task -> unit;
  pfs_read_paged :
    file_id -> off:int -> len:int ->
    ((int * int * bytes) option, fs_error) result;
  pfs_release_paged : addr:int -> bytes:int -> unit;
  pfs_write : file_id -> off:int -> bytes -> (int, fs_error) result;
  pfs_truncate : file_id -> len:int -> (unit, fs_error) result;
  pfs_rename :
    src_dir:file_id -> string -> dst_dir:file_id -> string ->
    (unit, fs_error) result;
  pfs_sync : unit -> unit;
  pfs_free_blocks : unit -> int;
  pfs_recover : unit -> recover_report;
  pfs_lock : mount_lock option;  (* [Some] once wrapped by {!serialized} *)
}

val ( let* ) :
  ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

(* Journal transaction hook: begin / commit-or-rollback around the body. *)
type txn = {
  txn_run : 'a. (unit -> ('a, fs_error) result) -> ('a, fs_error) result;
}

(* The same vector with create, remove, write, truncate and rename each
   run as one transaction. *)
val journalled : txn -> pfs -> pfs

(* The same vector with every entry that touches the mount's blocks
   (lookup, create, remove, readdir, stat, read, read_paged, write,
   truncate, rename, sync) run under one per-mount FIFO reader/writer
   lock.  A thread inside a [Shared_request] holds it shared, one inside
   an [Exclusive_request] or outside any request exclusive; a mutating
   entry (create, remove, write, truncate, rename, sync) reached by a
   shared request raises [Invalid_argument].  A request thread keeps the
   lock from its first locked entry until {!release_held}; any other
   thread holds it for one entry.  A free acquire costs nothing and
   allocates nothing.  An exclusive acquire then starts no earlier than
   the end of every hold already released, a shared one no earlier than
   the end of every exclusive hold already released, spinning, charged,
   up to that stamp.  A contended acquire waits in [Sched.wait] on every
   current holder; a later reader never passes a queued writer, and a
   release that frees the lock hands it to the oldest waiter (and, when
   that one is shared, to the shared waiters directly behind it).
   [pfs_recover] frees the lock of holders that were terminated and
   otherwise takes it, so recovery waits out a request still in flight.
   Wrap outside {!journalled}, so no transaction body waits on the
   lock. *)
val serialized : Mach.Sched.t -> pfs -> pfs

(* Inside a request, take the lock now and keep it to the request's
   end (a request that needs several mounts takes them in mount-id
   order); a no-op for any other thread. *)
val hold : mount_lock -> unit

(* Release the lock if [thread] holds it: the end of a request. *)
val release_held : mount_lock -> Mach.Ktypes.thread -> unit

(* Per-lock counters: shared and exclusive holds taken (a later entry
   of the same hold is not one), acquires that waited, and the cycles
   they waited — blocked in the kernel plus spins up to a release
   stamp. *)
type lock_stats = {
  ls_shared : int;
  ls_exclusive : int;
  ls_waits : int;
  ls_wait_cycles : int;
}

val lock_stats : mount_lock -> lock_stats
