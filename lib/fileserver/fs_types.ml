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

(* A mount's lock (see [serialized] below): its holders — one
   exclusive holder or any number of shared ones — with the clock at
   which each hold began, its FIFO of waiters, the two release stamps
   that keep it exclusive in simulated time, and its counters. *)
type mount_lock = {
  ml_sys : Mach.Sched.t;
  ml_res : string;  (* Machcheck resource key *)
  ml_rdesc : string;
  mutable ml_holders : Mach.Ktypes.thread array;  (* [0, ml_count) hold it *)
  mutable ml_since : float array;  (* per holder: the clock its hold began *)
  mutable ml_count : int;
  mutable ml_shared : bool;  (* the holders share it *)
  ml_waiters : Mach.Ktypes.thread Queue.t;
  ml_ends : float array;
      (* [| end of every released hold; end of every released exclusive
         hold |] *)
  mutable ml_shared_holds : int;
  mutable ml_exclusive_holds : int;
  mutable ml_waits : int;
  mutable ml_wait_cycles : float;
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
  pfs_lock : mount_lock option;  (* set by [serialized] *)
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

   The lock is a FIFO reader/writer lock.  A server thread inside a
   request that only reads ([Shared_request]) holds it shared; one inside
   a request that mutates, and every thread outside a request, holds it
   exclusive.  A mutating entry reached by a shared request raises: the
   request was misclassified.  A request thread takes the lock at the
   request's first locked entry and keeps it until its reply is built
   ([release_held]); later entries of the same request re-enter.  So a
   request's lookups, create and re-resolve are one atomic step, and a
   mount changes hands once per request, not once per entry.  Any other
   thread holds the lock for one entry.  An acquirer joins the holders
   at once only when the lock is free, or when it is shared, held shared
   and nobody queues (a later reader never passes a queued writer);
   otherwise it waits, and a release that frees the lock hands it to the
   oldest waiter — with a shared waiter, also to every shared waiter
   directly behind it — so a running thread never barges past a queue.

   The lock is a word in the server's own memory: taking a free one is a
   user-level test-and-set with no trap and no charge, so a one-thread
   server runs cycle for cycle as it did without it.  Only a contended
   acquire reaches the kernel, through [Sched.wait], which reports the
   wait-for edge to Machcheck: a waiter waits on every current holder.
   But a section that never blocks runs atomically on the host, so a
   second CPU whose clock lags could otherwise take a lock the host has
   already released at a simulated time inside, or just before, a hold
   it conflicts with.  Two stamps close that: an exclusive acquire starts
   no earlier than the end of every hold already released, a shared one
   no earlier than the end of every exclusive hold already released;
   an acquirer behind its stamp spins, charged, up to it.  On one CPU the
   clock never runs backwards, so no stamp is ever ahead of an acquirer.
   Outside thread context (boot-time tools) there is nothing to
   serialize. *)
let next_mount_lock = ref 0

type lock_stats = {
  ls_shared : int;
  ls_exclusive : int;
  ls_waits : int;
  ls_wait_cycles : int;
}

let lock_stats l =
  {
    ls_shared = l.ml_shared_holds;
    ls_exclusive = l.ml_exclusive_holds;
    ls_waits = l.ml_waits;
    ls_wait_cycles = int_of_float (Float.round l.ml_wait_cycles);
  }

let clock l = Machine.Cpu.now_exact l.ml_sys.Mach.Sched.machine.Machine.cpu

let is_shared (th : Mach.Ktypes.thread) =
  match th.request with
  | Mach.Ktypes.Shared_request -> true
  | Mach.Ktypes.No_request | Mach.Ktypes.Exclusive_request -> false

(* [th]'s slot among the holders, or -1. *)
let rec holder_slot l th i =
  if i >= l.ml_count then -1
  else if l.ml_holders.(i) == th then i
  else holder_slot l th (i + 1)

let holds l th = holder_slot l th 0 >= 0

let holder_tids l =
  List.init l.ml_count (fun i -> l.ml_holders.(i).Mach.Ktypes.tid)

let grant l th ~shared =
  let n = l.ml_count in
  if n = Array.length l.ml_holders then begin
    let cap = max 4 (2 * n) in
    let holders = Array.make cap th and since = Array.make cap 0. in
    Array.blit l.ml_holders 0 holders 0 n;
    Array.blit l.ml_since 0 since 0 n;
    l.ml_holders <- holders;
    l.ml_since <- since
  end;
  l.ml_holders.(n) <- th;
  l.ml_count <- n + 1;
  l.ml_shared <- shared

(* Point every waiter's wait-for edge at the current holders. *)
let retarget_waiters l =
  match l.ml_sys.Mach.Sched.checks with
  | Some _ when not (Queue.is_empty l.ml_waiters) ->
      let holders = holder_tids l in
      Queue.iter
        (fun w -> Mach.Mcheck.retarget l.ml_sys w ~holders)
        l.ml_waiters
  | Some _ | None -> ()

(* Wait in the kernel until a release hands the lock to [th].  A wake
   that finds the lock free (the waiter gave up its queue place) takes
   it; one that finds other holders waits again, on them. *)
let rec wait_for_handoff l th =
  ignore
    (Mach.Sched.wait l.ml_sys ~q:l.ml_waiters th ~res:l.ml_res
       ~rdesc:l.ml_rdesc ~holders:(holder_tids l) "mount-lock"
      : Mach.Ktypes.kern_return);
  if holds l th then ()
  else if l.ml_count = 0 then grant l th ~shared:(is_shared th)
  else wait_for_handoff l th

let acquire l th =
  let shared = is_shared th in
  let t0 = clock l in
  if
    l.ml_count = 0
    || (shared && l.ml_shared && Queue.is_empty l.ml_waiters)
  then grant l th ~shared
  else wait_for_handoff l th;
  let start = l.ml_ends.(if shared then 1 else 0) in
  if start > clock l then
    Machine.execute l.ml_sys.Mach.Sched.machine
      [ Machine.Footprint.Stall (int_of_float (Float.ceil (start -. clock l))) ];
  let now = clock l in
  if now > t0 then begin
    l.ml_waits <- l.ml_waits + 1;
    l.ml_wait_cycles <- l.ml_wait_cycles +. (now -. t0)
  end;
  if shared then l.ml_shared_holds <- l.ml_shared_holds + 1
  else l.ml_exclusive_holds <- l.ml_exclusive_holds + 1;
  l.ml_since.(holder_slot l th 0) <- now

(* Hand a free lock to the oldest waiter still blocked, and when that
   one is shared, to every shared waiter directly behind it. *)
let rec handoff l =
  if not (Queue.is_empty l.ml_waiters) then begin
    let w = Queue.peek l.ml_waiters in
    match w.Mach.Ktypes.state with
    | Mach.Ktypes.Th_blocked _ ->
        let shared = is_shared w in
        if l.ml_count = 0 || (shared && l.ml_shared) then begin
          ignore (Queue.take l.ml_waiters : Mach.Ktypes.thread);
          grant l w ~shared;
          Mach.Mcheck.retarget l.ml_sys w ~holders:[];
          Mach.Sched.wake l.ml_sys w;
          if shared then handoff l
        end
    | Mach.Ktypes.Th_runnable | Mach.Ktypes.Th_running
    | Mach.Ktypes.Th_terminated ->
        ignore (Queue.take l.ml_waiters : Mach.Ktypes.thread);
        handoff l
  end

(* End [th]'s hold: report it, advance the release stamps, and when the
   lock falls free pass it on.  The new holders stop waiting on anyone;
   the waiters behind them now wait on them — a wait-for edge left
   pointing at a former holder would close a false cycle the moment that
   thread queues again. *)
let release l th =
  let i = holder_slot l th 0 in
  if i >= 0 then begin
    let now = clock l in
    let exclusive = not l.ml_shared in
    (match l.ml_sys.Mach.Sched.checks with
    | None -> ()
    | Some _ ->
        Mach.Mcheck.lock_hold l.ml_sys ~res:l.ml_res ~rdesc:l.ml_rdesc
          ~tid:th.Mach.Ktypes.tid ~exclusive ~from:l.ml_since.(i) ~until:now);
    if now > l.ml_ends.(0) then l.ml_ends.(0) <- now;
    if exclusive && now > l.ml_ends.(1) then l.ml_ends.(1) <- now;
    let last = l.ml_count - 1 in
    l.ml_holders.(i) <- l.ml_holders.(last);
    l.ml_since.(i) <- l.ml_since.(last);
    l.ml_count <- last;
    if last = 0 then handoff l;
    retarget_waiters l
  end

(* Take the lock now, for the rest of the current request; a no-op
   outside a request, or when the thread already holds it. *)
let hold l =
  match l.ml_sys.Mach.Sched.current with
  | Some th -> (
      match th.Mach.Ktypes.request with
      | Mach.Ktypes.No_request -> ()
      | Mach.Ktypes.Shared_request | Mach.Ktypes.Exclusive_request ->
          if not (holds l th) then acquire l th)
  | None -> ()

let release_held = release

(* The lock is incarnation state: holders that died with the old
   incarnation must not wedge the next one. *)
let rec release_dead l i =
  if i < l.ml_count then begin
    let h = l.ml_holders.(i) in
    if h.Mach.Ktypes.state = Mach.Ktypes.Th_terminated then begin
      release l h;
      release_dead l i
    end
    else release_dead l (i + 1)
  end

let serialized (sys : Mach.Sched.t) p =
  incr next_mount_lock;
  let l =
    {
      ml_sys = sys;
      ml_res = Printf.sprintf "mount-lock:%d" !next_mount_lock;
      ml_rdesc = Printf.sprintf "mount(%s)" p.pfs_limits.fl_format;
      ml_holders = [||];
      ml_since = [||];
      ml_count = 0;
      ml_shared = false;
      ml_waiters = Queue.create ();
      ml_ends = [| 0.; 0. |];
      ml_shared_holds = 0;
      ml_exclusive_holds = 0;
      ml_waits = 0;
      ml_wait_cycles = 0.;
    }
  in
  let locked ~mutates f =
    match sys.Mach.Sched.current with
    | None -> f ()
    | Some th -> (
        if mutates && is_shared th then
          invalid_arg
            (Printf.sprintf "%s: a mutating entry under a shared hold"
               l.ml_rdesc);
        if holds l th then f ()  (* a later entry of the same hold *)
        else begin
          acquire l th;
          match th.Mach.Ktypes.request with
          | Mach.Ktypes.Shared_request | Mach.Ktypes.Exclusive_request -> f ()
          | Mach.Ktypes.No_request -> (
              match f () with
              | v ->
                  release l th;
                  v
              | exception e ->
                  release l th;
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
        release_dead l 0;
        mutates p.pfs_recover);
    pfs_lock = Some l;
  }
