(* Common file-system types shared by the physical file systems, the
   vnode layer and the file server. *)

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

let fs_error_to_string = function
  | E_not_found -> "not found"
  | E_exists -> "exists"
  | E_no_space -> "no space"
  | E_name_too_long -> "name too long"
  | E_bad_name -> "bad name"
  | E_not_dir -> "not a directory"
  | E_is_dir -> "is a directory"
  | E_dir_not_empty -> "directory not empty"
  | E_bad_handle -> "bad handle"
  | E_read_only -> "read-only"
  | E_io s -> "I/O error: " ^ s

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

(* What a physical file system reports after crash recovery: journal
   replay volume plus any fsck-style invariant violations found in the
   recovered image.  A clean recovery has an empty findings list. *)
type recover_report = {
  rr_journal_txns : int;
  rr_journal_blocks : int;
  rr_fsck_findings : string list;
}

let clean_recovery =
  { rr_journal_txns = 0; rr_journal_blocks = 0; rr_fsck_findings = [] }

let merge_recovery a b =
  {
    rr_journal_txns = a.rr_journal_txns + b.rr_journal_txns;
    rr_journal_blocks = a.rr_journal_blocks + b.rr_journal_blocks;
    rr_fsck_findings = a.rr_fsck_findings @ b.rr_fsck_findings;
  }

(* The physical-file-system operations record — the extended vnode
   architecture's per-format plug. *)
type pfs = {
  pfs_limits : format_limits;
  pfs_root : file_id;
  pfs_lookup : dir:file_id -> string -> (file_id, fs_error) result;
  pfs_create : dir:file_id -> string -> is_dir:bool -> (file_id, fs_error) result;
  pfs_remove : dir:file_id -> string -> (unit, fs_error) result;
  pfs_readdir : dir:file_id -> (string list, fs_error) result;
  pfs_stat : file_id -> (stat, fs_error) result;
  pfs_read : file_id -> off:int -> len:int -> (bytes, fs_error) result;
  (* Zero-copy read path: assemble whole blocks into mapped-out cache
     pool pages and return [(pool_addr, map_bytes, data)], where
     [map_bytes] is the page-rounded extent to remap into the client.
     [Ok None] means the format (or the pool) cannot serve the request
     zero-copy and the caller should fall back to [pfs_read]. *)
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
  (* Crash recovery after a supervised restart: reclaim incarnation
     state (mapout pool), replay the journal if the format has one, and
     scan the recovered image for invariant violations. *)
  pfs_recover : unit -> recover_report;
  pfs_lock : Mach.Sync.lock option;  (* set by [serialized] *)
}

let ( let* ) = Result.bind

(* --- journalling as an operation-vector wrapper ------------------------ *)

(* Journal transaction hook: begin / commit-or-rollback around the body.
   [journalled] wraps every mutating entry of a vector in it, so crash
   consistency is a property of the operation vector (the way DragonFly
   hangs journaling off the VOP dispatch layer) rather than a private
   feature of one format's internals. *)
type txn = {
  txn_run : 'a. (unit -> ('a, fs_error) result) -> ('a, fs_error) result;
}

let journalled txn p =
  {
    p with
    pfs_create =
      (fun ~dir name ~is_dir ->
        txn.txn_run (fun () -> p.pfs_create ~dir name ~is_dir));
    pfs_remove =
      (fun ~dir name -> txn.txn_run (fun () -> p.pfs_remove ~dir name));
    pfs_write =
      (fun id ~off data -> txn.txn_run (fun () -> p.pfs_write id ~off data));
    pfs_truncate =
      (fun id ~len -> txn.txn_run (fun () -> p.pfs_truncate id ~len));
    pfs_rename =
      (fun ~src_dir name ~dst_dir new_name ->
        txn.txn_run (fun () -> p.pfs_rename ~src_dir name ~dst_dir new_name));
  }

(* --- per-mount serialization ------------------------------------------- *)

(* Every entry that touches the mount's blocks runs under one lock per
   mount, after DragonFly's per-mount MPLOCK.  The bodies read, may block
   on a cache miss, then write — a directory rewrite, the inode and
   bitmap allocators, a file's inode copy, the journal's one transaction
   overlay — so with several server threads the unit of atomicity has to
   be the mount, not a directory.

   The lock is the kernel's reader/writer lock ([Mach.Sync.lock]); what
   is left here is the file server's policy for it.  A server thread
   inside a request that only reads ([Shared_request]) holds it shared;
   one inside a request that mutates, and every thread outside a
   request, holds it exclusive.  A mutating entry reached by a shared
   request raises: the request was misclassified.  A request thread
   takes the lock at the request's first locked entry and keeps it until
   its reply is built ([release_held]); later entries of the same
   request re-enter.  So a request's lookups, create and re-resolve are
   one atomic step, and a mount changes hands once per request, not once
   per entry.  Any other thread holds the lock for one entry.  A free
   acquire costs nothing, so a one-thread server runs cycle for cycle as
   it did without the lock.  Outside thread context (boot-time tools)
   there is nothing to serialize. *)
let is_shared (th : Mach.Ktypes.thread) =
  match th.request with
  | Mach.Ktypes.Shared_request -> true
  | Mach.Ktypes.No_request | Mach.Ktypes.Exclusive_request -> false

(* Take the lock now, for the rest of the current request; a no-op
   outside a request, or when the thread already holds it. *)
let hold (sys : Mach.Sched.t) l =
  match sys.current with
  | Some th -> (
      match th.Mach.Ktypes.request with
      | Mach.Ktypes.No_request -> ()
      | Mach.Ktypes.Shared_request | Mach.Ktypes.Exclusive_request ->
          if not (Mach.Sync.lock_holds l th) then Mach.Sync.lock_acquire l th)
  | None -> ()

let release_held = Mach.Sync.lock_release

(* The lock is incarnation state: holders that died with the old
   incarnation must not wedge the next one. *)
let release_dead l =
  List.iter
    (fun (h : Mach.Ktypes.thread) ->
      if h.state = Mach.Ktypes.Th_terminated then Mach.Sync.lock_release l h)
    (Mach.Sync.lock_holders l)

let serialized (sys : Mach.Sched.t) p =
  let rdesc = Printf.sprintf "mount(%s)" p.pfs_limits.fl_format in
  let l =
    Mach.Sync.lock_create sys ~name:"mount-lock" ~rdesc:"mount"
      ~rname:p.pfs_limits.fl_format ~shared:is_shared
  in
  let locked ~mutates f =
    match sys.Mach.Sched.current with
    | None -> f ()
    | Some th -> (
        if mutates && is_shared th then
          invalid_arg
            (Printf.sprintf "%s: a mutating entry under a shared hold" rdesc);
        if Mach.Sync.lock_holds l th then f ()  (* a later entry of a hold *)
        else begin
          Mach.Sync.lock_acquire l th;
          match th.Mach.Ktypes.request with
          | Mach.Ktypes.Shared_request | Mach.Ktypes.Exclusive_request -> f ()
          | Mach.Ktypes.No_request -> (
              match f () with
              | v ->
                  Mach.Sync.lock_release l th;
                  v
              | exception e ->
                  Mach.Sync.lock_release l th;
                  raise e)
        end)
  in
  let reads f = locked ~mutates:false f and mutates f = locked ~mutates:true f in
  {
    p with
    pfs_lookup = (fun ~dir name -> reads (fun () -> p.pfs_lookup ~dir name));
    pfs_create =
      (fun ~dir name ~is_dir ->
        mutates (fun () -> p.pfs_create ~dir name ~is_dir));
    pfs_remove = (fun ~dir name -> mutates (fun () -> p.pfs_remove ~dir name));
    pfs_readdir = (fun ~dir -> reads (fun () -> p.pfs_readdir ~dir));
    pfs_stat = (fun id -> reads (fun () -> p.pfs_stat id));
    pfs_read = (fun id ~off ~len -> reads (fun () -> p.pfs_read id ~off ~len));
    pfs_read_paged =
      (fun id ~off ~len -> reads (fun () -> p.pfs_read_paged id ~off ~len));
    pfs_write =
      (fun id ~off data -> mutates (fun () -> p.pfs_write id ~off data));
    pfs_truncate = (fun id ~len -> mutates (fun () -> p.pfs_truncate id ~len));
    pfs_rename =
      (fun ~src_dir name ~dst_dir new_name ->
        mutates (fun () -> p.pfs_rename ~src_dir name ~dst_dir new_name));
    pfs_sync = (fun () -> mutates p.pfs_sync);
    pfs_recover =
      (fun () ->
        (* one of the dead incarnation's serve threads still inside a
           request must finish it before recovery rereads the volume
           under it *)
        release_dead l;
        mutates p.pfs_recover);
    pfs_lock = Some l;
  }
