(** The VFS: mount table, vnode-based path walking, the DragonFly-style
    name cache, and the union-semantics checks.

    The personality-neutral file server "had to implement the union of
    the TalOS, the OS/2 and the UNIX file system semantics"; this module
    is where that union lives.  Each call carries the client
    personality's {!semantics}; the layer reconciles them with the
    mounted format's {!Fs_types.format_limits}, folding case, rejecting
    over-long names on FAT, and counting every {e compromise} — the
    places where no consistent answer exists and the implementation
    picks one (measured by tests and discussed in DESIGN.md §5).

    Paths resolve through interned {!Vnode.t}s and a name cache keyed by
    [(mount, directory vnode, folded component)] with negative entries;
    mutations and crash recovery invalidate what they falsify
    (DESIGN.md §13). *)

open Fs_types

type t

type semantics = {
  sem_name : string;
  sem_case_sensitive : bool;
  sem_long_names : bool;
}

val os2_semantics : semantics
val unix_semantics : semantics
val talos_semantics : semantics

type node = Root | File of Vnode.t
(** What a path resolves to: ["/"] is the synthetic root directory
    (its entries are the mount points), everything else a vnode. *)

val create : ?kernel:Mach.Kernel.t -> unit -> t
(** [?kernel] lets the walk charge simulated cycles for cache probes.
    The name cache holds 512 entries and starts enabled. *)

val mount : t -> at:string -> pfs -> (unit, string) result
(** Mount points are single top-level components, e.g. ["/c"]. *)

val mounts : t -> (string * string) list
(** [(mount point, format)] pairs. *)

val resolve : t -> semantics -> path:string -> (node, fs_error) result
(** Walk the path through the mount table and directories.  [""] and
    ["/"] resolve to {!Root}. *)

val compromises : t -> int
(** Number of semantic compromises taken so far: distinct names whose
    case a case-folding mount discarded under a case-sensitive client,
    counted once per name per mount. *)

val stat : t -> semantics -> path:string -> (stat, fs_error) result
val mkdir : t -> semantics -> path:string -> (file_id, fs_error) result
val create_file : t -> semantics -> path:string -> (file_id, fs_error) result
val unlink : t -> semantics -> path:string -> (unit, fs_error) result
val readdir : t -> semantics -> path:string -> (string list, fs_error) result
(** [readdir] of ["/"] lists the mount points. *)

val rename :
  t -> semantics -> src:string -> dst:string -> (unit, fs_error) result
(** Source and destination must be on the same mount; a cross-mount
    rename fails before either path is walked. *)

val sync : Mach.Sched.t -> t -> unit
(** Flush every mount.  Inside a request (of the system's current
    thread) the mount locks are taken first, in mount-id order. *)

val end_request : t -> Mach.Ktypes.thread -> unit
(** A file-server request is over: release every mount lock the thread
    took for it. *)

val mount_lock_stats : t -> (string * Mach.Sync.lock_stats) list
(** Each serialized mount's lock counters, by mount point, in mount
    order. *)

val recover : t -> Fs_types.recover_report
(** Run every mount's crash recovery (journal replay + invariant scan
    where the format supports it) and merge the reports.  Every cached
    name and interned vnode of the dead incarnation is dropped.  Called
    by the file server when a supervised restart brings it back. *)

(** {2 Name-cache controls (A/B runs and tests)} *)

val set_namecache : t -> bool -> unit
(** Disabling clears the cache (the A/B baseline). *)

val cache_stats : t -> Namecache.stats
