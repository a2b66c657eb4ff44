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
  pfs_lock : Mach.Sync.lock option;  (* [Some] once wrapped by {!serialized} *)
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
   truncate, rename, sync) run under one per-mount lock, the kernel's
   reader/writer lock ([Mach.Sync.lock], which keeps the holds exclusive
   in simulated time).  This module keeps only the file server's policy
   for it.  A thread inside a [Shared_request] holds it shared, one
   inside an [Exclusive_request] or outside any request exclusive; a
   mutating entry (create, remove, write, truncate, rename, sync)
   reached by a shared request raises [Invalid_argument].  A request
   thread keeps the lock from its first locked entry until
   {!release_held}; any other thread holds it for one entry.
   [pfs_recover] frees the lock of holders that were terminated and
   otherwise takes it, so recovery waits out a request still in flight.
   Wrap outside {!journalled}, so no transaction body waits on the
   lock. *)
val serialized : Mach.Sched.t -> pfs -> pfs

(* Inside a request of the system's current thread, take the lock now
   and keep it to the request's end (a request that needs several
   mounts takes them in mount-id order); a no-op for any other
   thread. *)
val hold : Mach.Sched.t -> Mach.Sync.lock -> unit

(* Release the lock if [thread] holds it: the end of a request. *)
val release_held : Mach.Sync.lock -> Mach.Ktypes.thread -> unit
