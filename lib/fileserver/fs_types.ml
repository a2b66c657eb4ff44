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

(* A mount's lock (see [serialized] below).  Besides the holder and its
   FIFO of waiters it keeps a fixed ring of its most recent hold
   intervals in simulated cycles, and its wait counters. *)
type mount_lock = {
  ml_sys : Mach.Sched.t;
  ml_res : string;  (* Machcheck resource key *)
  ml_rdesc : string;
  mutable ml_holder : Mach.Ktypes.thread option;
  ml_waiters : Mach.Ktypes.thread Queue.t;
  mutable ml_since : float;  (* the holder's clock when its hold began *)
  ml_from : float array;  (* hold-interval ring: [from, to) per slot *)
  ml_to : float array;
  mutable ml_next : int;  (* ring slot the next release overwrites *)
  mutable ml_acquisitions : int;
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

   A server thread inside a request ([in_request]) takes the lock at the
   request's first locked entry and keeps it until its reply is built
   ([release_held]); later entries of the same request re-enter.  So a
   request's lookups, create and re-resolve are one atomic step, and a
   mount changes hands once per request, not once per entry.  Any other
   thread holds the lock for one entry.  Release hands the lock straight
   to the oldest waiter, so a running thread never barges past a queue.

   The lock is a word in the server's own memory: taking a free one is a
   user-level test-and-set with no trap and no charge, so a one-thread
   server runs cycle for cycle as it did without it.  Only a contended
   acquire reaches the kernel, through [Sched.wait], which reports the
   wait-for edge to Machcheck.  But a section that never blocks runs
   atomically on the host, so a second CPU could otherwise take a free
   lock at a simulated time inside the first CPU's hold.  The lock
   therefore remembers its last [hold_ring] hold intervals, and an
   acquire whose clock falls inside one spins (charged) until that hold
   ends.  On one CPU the clock never runs backwards and no interval is
   ever hit.  Outside thread context (boot-time tools) there is nothing
   to serialize. *)
let next_mount_lock = ref 0
let hold_ring = 8

type lock_stats = { ls_acquisitions : int; ls_waits : int; ls_wait_cycles : int }

let lock_stats l =
  {
    ls_acquisitions = l.ml_acquisitions;
    ls_waits = l.ml_waits;
    ls_wait_cycles = int_of_float (Float.round l.ml_wait_cycles);
  }

let clock l = Machine.Cpu.now_exact l.ml_sys.Mach.Sched.machine.Machine.cpu

(* The latest end among the recorded holds that [now] falls inside, or
   [now] when it falls inside none. *)
let hold_end l now =
  let until = ref now in
  for i = 0 to hold_ring - 1 do
    if l.ml_from.(i) <= now && now < l.ml_to.(i) && l.ml_to.(i) > !until then
      until := l.ml_to.(i)
  done;
  !until

let rec stall_past_holds l =
  let now = clock l in
  let until = hold_end l now in
  if until > now then begin
    Machine.execute l.ml_sys.Mach.Sched.machine
      [ Machine.Footprint.Stall (int_of_float (Float.ceil (until -. now))) ];
    stall_past_holds l
  end

(* Wait in the kernel until a release hands the lock to [th].  A wake
   that finds the lock free (the waiter gave up its queue place) takes
   it; one that finds another holder waits again, on that holder. *)
let rec wait_for_handoff l th (h : Mach.Ktypes.thread) =
  ignore
    (Mach.Sched.wait l.ml_sys ~q:l.ml_waiters th ~res:l.ml_res
       ~rdesc:l.ml_rdesc ~holders:[ h.tid ] "mount-lock"
      : Mach.Ktypes.kern_return);
  match l.ml_holder with
  | Some h' when h' == th -> ()
  | None -> l.ml_holder <- Some th
  | Some h' -> wait_for_handoff l th h'

let acquire l th =
  let t0 = clock l in
  (match l.ml_holder with
  | None -> l.ml_holder <- Some th
  | Some h -> wait_for_handoff l th h);
  stall_past_holds l;
  let now = clock l in
  if now > t0 then begin
    l.ml_waits <- l.ml_waits + 1;
    l.ml_wait_cycles <- l.ml_wait_cycles +. (now -. t0)
  end;
  l.ml_acquisitions <- l.ml_acquisitions + 1;
  l.ml_since <- now

(* Record the hold, then pass the lock to the oldest waiter still
   blocked.  The new holder stops waiting on anyone; the waiters behind
   it now wait on it — a wait-for edge left pointing at the old holder
   would close a false cycle the moment that thread queues again. *)
let release l =
  let now = clock l in
  if now > l.ml_since then begin
    l.ml_from.(l.ml_next) <- l.ml_since;
    l.ml_to.(l.ml_next) <- now;
    l.ml_next <- (l.ml_next + 1) mod hold_ring
  end;
  let rec handoff () =
    match Queue.take_opt l.ml_waiters with
    | None -> l.ml_holder <- None
    | Some w -> (
        match w.Mach.Ktypes.state with
        | Mach.Ktypes.Th_blocked _ ->
            l.ml_holder <- Some w;
            l.ml_since <- now;
            let sys = l.ml_sys in
            Mach.Mcheck.retarget sys w ~holders:[];
            Queue.iter
              (fun x -> Mach.Mcheck.retarget sys x ~holders:[ w.tid ])
              l.ml_waiters;
            Mach.Sched.wake sys w
        | Mach.Ktypes.Th_runnable | Mach.Ktypes.Th_running
        | Mach.Ktypes.Th_terminated ->
            handoff ())
  in
  handoff ()

(* Take the lock now, for the rest of the current request; a no-op
   outside a request, or when the thread already holds it. *)
let hold l =
  match l.ml_sys.Mach.Sched.current with
  | Some th when th.Mach.Ktypes.in_request -> (
      match l.ml_holder with
      | Some h when h == th -> ()
      | Some _ | None -> acquire l th)
  | Some _ | None -> ()

let release_held l th =
  match l.ml_holder with Some h when h == th -> release l | Some _ | None -> ()

let serialized (sys : Mach.Sched.t) p =
  incr next_mount_lock;
  let l =
    {
      ml_sys = sys;
      ml_res = Printf.sprintf "mount-lock:%d" !next_mount_lock;
      ml_rdesc = Printf.sprintf "mount(%s)" p.pfs_limits.fl_format;
      ml_holder = None;
      ml_waiters = Queue.create ();
      ml_since = 0.;
      ml_from = Array.make hold_ring 0.;
      ml_to = Array.make hold_ring 0.;
      ml_next = 0;
      ml_acquisitions = 0;
      ml_waits = 0;
      ml_wait_cycles = 0.;
    }
  in
  let locked f =
    match sys.Mach.Sched.current with
    | None -> f ()
    | Some th -> (
        match l.ml_holder with
        | Some h when h == th -> f ()  (* a later entry of the same hold *)
        | Some _ | None -> (
            acquire l th;
            if th.Mach.Ktypes.in_request then f ()
            else
              match f () with
              | v ->
                  release l;
                  v
              | exception e ->
                  release l;
                  raise e))
  in
  {
    p with
    pfs_lookup = (fun ~dir name -> locked (fun () -> p.pfs_lookup ~dir name));
    pfs_create =
      (fun ~dir name ~is_dir ->
        locked (fun () -> p.pfs_create ~dir name ~is_dir));
    pfs_remove = (fun ~dir name -> locked (fun () -> p.pfs_remove ~dir name));
    pfs_readdir = (fun ~dir -> locked (fun () -> p.pfs_readdir ~dir));
    pfs_stat = (fun id -> locked (fun () -> p.pfs_stat id));
    pfs_read = (fun id ~off ~len -> locked (fun () -> p.pfs_read id ~off ~len));
    pfs_read_paged =
      (fun id ~off ~len -> locked (fun () -> p.pfs_read_paged id ~off ~len));
    pfs_write = (fun id ~off data -> locked (fun () -> p.pfs_write id ~off data));
    pfs_truncate = (fun id ~len -> locked (fun () -> p.pfs_truncate id ~len));
    pfs_rename =
      (fun ~src_dir name ~dst_dir new_name ->
        locked (fun () -> p.pfs_rename ~src_dir name ~dst_dir new_name));
    pfs_sync = (fun () -> locked p.pfs_sync);
    pfs_recover =
      (fun () ->
        (* the lock is incarnation state: a thread that died holding it
           must not wedge the next incarnation, and one of the dead
           incarnation's serve threads still inside a request must
           finish it before recovery rereads the volume under it *)
        (match l.ml_holder with
        | Some h when h.Mach.Ktypes.state = Mach.Ktypes.Th_terminated ->
            release l
        | Some _ | None -> ());
        locked p.pfs_recover);
    pfs_lock = Some l;
  }
