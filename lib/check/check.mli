(** Machcheck: shadow analysis of kernel resource use.

    Nine cooperating checkers observe the microkernel's and its
    servers' hot paths and report misuse that would otherwise be
    invisible across the microkernel boundary — the fragility the paper
    attributes to leaked port rights, stateful kernel wrappers and
    stacked managers:

    - the {b rights sanitizer} shadow-accounts every port-right
      transition (allocate / insert / move / deallocate / destroy) and
      reports leaked rights (entries still naming a dead port), double
      frees and downgraded rights;
    - the {b deadlock detector} maintains a wait-for graph over every
      blocking edge the IPC, RPC and synchronizer layers report and runs
      cycle detection each time a thread blocks;
    - the {b buffer-lifetime sanitizer} mirrors the kernel
      message-buffer free list and reports double-release and
      use-after-release;
    - the {b remap-ownership sanitizer} guards pages donated by remap;
    - the {b crash-consistency checker} audits each recovered crash point;
    - the {b vnode-lifecycle checker} shadows vnode and name-cache state;
    - the {b netisr shard checker} flags sockets touched off their shard;
    - the {b reincarnation checker} audits what a reborn shard restores;
    - the {b lock-overlap checker} flags conflicting holds of one lock
      that overlap in simulated time.

    The report is derived from one column table: each activity counter
    and each finding kind is one column of the ["machcheck"] block.  A
    new checker adds its event functions and its columns, nothing else.

    The checker is pure host-side bookkeeping: it charges no simulated
    cycles and never touches kernel state, so enabling it cannot perturb
    a measurement, and with no checker attached every hook is a single
    [None] match (the [Mach.Fault] pattern).

    Because one checker instance may watch several booted systems in
    sequence (a workload sweep boots a fresh machine per point), every
    event is keyed by a {e space}: an id handed out by {!new_space} once
    per attached system, so task/port/thread/buffer ids from different
    boots never alias. *)

type t

type right = R_receive | R_send | R_send_once

type finding = {
  f_checker : string;  (* "rights" | "deadlock" | "buffer" | "remap"
                          | "crash" | "vnode" | "net" | "reinc" *)
  f_kind : string;  (* "leak" | "double-free" | "downgrade" | "wait-cycle"
                       | "double-release" | "use-after-release"
                       | "lost-write" | "torn-state" | ... *)
  f_detail : string;
}

type report = {
  counts : (string * int) list;  (** the ["machcheck"] columns, in order *)
  findings : finding list;  (** oldest first; includes leak findings *)
}

val create : unit -> t

val new_space : t -> int
(** Register one booted system with the checker; all events from that
    system must carry the returned id. *)

(* --- global attach point ------------------------------------------------ *)

val install : t -> unit
(** Make [t] the process-wide checker: systems booted while installed
    attach themselves to it.  Workloads use this so the machines they
    boot internally run under Machcheck. *)

val uninstall : unit -> unit

val installed : unit -> t option

(* --- rights sanitizer --------------------------------------------------- *)

val right_allocated :
  t -> space:int -> task:int -> tname:string -> port:int -> pname:string ->
  unit
(** A receive right was deposited by port allocation. *)

val right_inserted :
  t -> space:int -> task:int -> tname:string -> port:int -> pname:string ->
  right:right -> now:right -> unit
(** A right was inserted; [now] is the right the kernel actually records
    after its hierarchy rules.  If [now] is weaker than the shadow's
    recorded right, a "downgrade" finding fires — the kernel weakened a
    held capability. *)

val right_deallocated : t -> space:int -> task:int -> port:int -> unit
(** One reference dropped; the shadow entry dies at zero.  Deallocating
    a right the shadow does not know is a "double-free" finding. *)

val dealloc_missing :
  t -> space:int -> task:int -> tname:string -> name:int -> unit
(** The kernel itself rejected a deallocate ([Kern_invalid_name]): the
    task freed a name it no longer holds — a "double-free" finding. *)

val right_moved :
  t -> space:int -> from_task:int -> from_name:string -> to_task:int ->
  to_name:string -> port:int -> pname:string -> right:right -> now:right ->
  unit
(** One reference of [right] moved between port spaces; [now] is the
    right the destination actually holds afterwards (a deposit into an
    entry holding a stronger right keeps the stronger one — recording
    anything weaker than the shadow is a "downgrade" finding). *)

val port_destroyed : t -> space:int -> port:int -> unit
(** Marks the port dead: any right entry still naming it is a leak. *)

val task_teardown : t -> space:int -> task:int -> tname:string -> int
(** Release every shadow entry the task still holds (the kernel reclaims
    the port space with the task); returns the residual count, which is
    also accumulated into the report's [teardown_residual] column rather
    than silently dropped. *)

val live_rights : t -> space:int -> task:int -> int
val dead_rights : t -> space:int -> task:int -> int
(** Entries the task holds that name a destroyed port — the residue that
    must be zero after a supervised restart. *)

(* --- deadlock detector -------------------------------------------------- *)

val blocked_on :
  t -> space:int -> tid:int -> tname:string -> cpu:int -> rdesc:string ->
  holders:int list -> unit
(** Thread [tid] blocked on the resource named [rdesc].  [holders] are
    the threads that could unblock it, as known at block time (a lock's
    waiter names every holder, and is {!retarget}ed as holders change).
    [cpu] is the CPU the thread blocked on (-1 = unknown): a detected
    cycle whose waiters span more than one CPU is flagged cross-CPU in
    the finding.  Runs cycle detection from [tid]; a cycle is a
    "wait-cycle" finding naming every edge. *)

val unblocked : t -> space:int -> tid:int -> unit
(** The thread resumed (normally, by timeout, or woken by a dying port):
    its wait-for edge is removed. *)

val remote_wake_sent : t -> space:int -> tid:int -> unit
(** A cross-CPU wake message for [tid] is in flight: the thread still
    looks blocked but is guaranteed to run, so cycle search must not
    pass through it (suppresses self-resolving "deadlocks"). *)

val remote_wake_delivered : t -> space:int -> tid:int -> unit
(** The wake message arrived and the thread is runnable again —
    equivalent to {!unblocked}. *)

val retarget : t -> space:int -> tid:int -> holders:int list -> unit
(** Narrow a blocked thread's holder set once the real peer is known
    (e.g. the server thread that picked up its RPC). *)

val thread_gone : t -> space:int -> tid:int -> unit
(** The thread terminated: purge its wait-for edge so no stale deadlock
    edge survives a kill. *)

val blocked_count : t -> int
(** Threads currently in the wait-for graph (all spaces). *)

(* --- buffer-lifetime sanitizer ------------------------------------------ *)

val buf_allocated : t -> space:int -> addr:int -> bytes:int -> unit
val buf_used : t -> space:int -> addr:int -> unit
(** A kernel path read or wrote the buffer; if the shadow retired it, a
    "use-after-release" finding fires. *)

val buf_released : t -> space:int -> addr:int -> unit
(** Live buffers retire; releasing a retired buffer is a
    "double-release" finding; unknown addresses (handed out before the
    checker attached, or orphaned by an arena recycle) are ignored. *)

val buf_reset : t -> space:int -> unit
(** The arena was recycled wholesale: all shadow state for the space is
    dropped (outstanding handles legitimately dangle afterwards). *)

(* --- remap-ownership sanitizer ------------------------------------------ *)

val remap_moved :
  t -> space:int -> task:int -> tname:string -> addr:int -> bytes:int -> unit
(** The task donated [addr, addr+bytes) to another task via remap_move
    and no longer owns those pages.  Donating a range that overlaps one
    already moved out is a "double-move" finding. *)

val remap_write :
  t -> space:int -> task:int -> addr:int -> bytes:int -> unit
(** A write by the task touched [addr, addr+bytes); if it lands inside a
    moved-out range, a "write-after-move" finding fires (once — the
    offending range is then dropped so one bug is one finding). *)

val remap_clear :
  t -> space:int -> task:int -> addr:int -> bytes:int -> unit
(** The range was legitimately reused (deallocated and re-allocated):
    forget any moved-out state overlapping it. *)

val cache_mapped_out : t -> space:int -> addr:int -> pinned:bool -> unit
(** A cache page at [addr] is now mapped out to a client (the file
    server's zero-copy reply path); [pinned] says whether the cache
    holds a pin that should keep the page from being recycled. *)

val cache_unmapped : t -> space:int -> addr:int -> unit
(** The client unmapped the page and the cache may reuse it. *)

val cache_reused : t -> space:int -> addr:int -> tag:string -> unit
(** The cache recycled the page for other data.  If it was still mapped
    out, a "mapout-eviction" finding fires — the client now reads bytes
    that belong to someone else. *)

(* --- crash-consistency checker ------------------------------------------ *)

val crash_point_checked : t -> space:int -> unit
(** One crash point (power cut after the Nth disk write) was enumerated,
    recovered from, and its invariants verified.  Counter only — the
    interesting outputs are the findings below, or their absence. *)

val crash_lost_write : t -> space:int -> string -> unit
(** A write the file system acknowledged before the crash is missing or
    wrong after recovery — a "lost-write" finding. *)

val crash_torn_state : t -> space:int -> string -> unit
(** Recovery left the volume structurally inconsistent (an fsck
    invariant failed, or an un-acknowledged op is partially visible) —
    a "torn-state" finding. *)

(* --- vnode-lifecycle checker --------------------------------------------- *)

val vnode_active : t -> space:int -> mount:int -> file:int -> unit
(** A vnode for [(mount, file)] was interned.  Re-activating an id that
    was reclaimed is legitimate (formats reuse file ids): the reclaimed
    mark is dropped. *)

val vnode_ref : t -> space:int -> mount:int -> file:int -> unit
(** A long-lived holder (an open-file table entry) took a reference. *)

val vnode_unref : t -> space:int -> mount:int -> file:int -> unit
(** A reference was dropped.  Dropping a reference the shadow count does
    not hold is a "ref-underflow" finding. *)

val vnode_reclaimed : t -> space:int -> mount:int -> file:int -> unit
(** The vnode was reclaimed (its file was unlinked, or its mount
    recovered).  Outstanding references are legitimate here — the holder
    must fail subsequent uses with [E_bad_handle]. *)

val vnode_used :
  t -> space:int -> mount:int -> file:int -> op:string -> unit
(** An operation was dispatched through the vnode.  Dispatch through a
    reclaimed vnode is a "use-after-reclaim" finding (reported once per
    vnode, then re-armed). *)

val vnode_mount_recovered : t -> space:int -> mount:int -> unit
(** The mount ran crash recovery: every vnode of the dead incarnation is
    gone.  Any shadow reference still outstanding is a "vnode-leak"
    finding; the mount's shadow state is then purged (file ids will be
    reused by the recovered incarnation). *)

(* --- name-cache shadow ---------------------------------------------------- *)

val ncache_stored :
  t -> space:int -> mount:int -> dir:int -> name:string -> file:int -> unit
(** A positive name-cache entry [(dir, name) -> file] was inserted. *)

val ncache_hit : t -> space:int -> mount:int -> dir:int -> name:string -> unit
(** A walk was served from the cache.  If the shadowed target vnode was
    reclaimed and never invalidated, a "stale-entry" finding fires. *)

val ncache_invalidated :
  t -> space:int -> mount:int -> dir:int -> name:string -> unit
(** The entry was invalidated (unlink/rename/create or LRU eviction). *)

val ncache_cleared : t -> space:int -> unit
(** The whole cache was dropped (recovery): purge the shadow store. *)

(* --- netisr shard checker ------------------------------------------------- *)

val net_socket_home : t -> space:int -> sock:int -> shard:int -> unit
(** Socket [sock] (a lifetime-unique uid, not its reusable port number)
    was created with its state homed on [shard]: from now on, only that
    shard's protocol thread may touch it. *)

val net_touched : t -> space:int -> sock:int -> home:int -> shard:int -> unit
(** A packet-delivery path running in [shard]'s context touched [sock]
    (whose home the caller believes is [home]; the registered home from
    {!net_socket_home} wins if they disagree).  A touch from any shard
    other than the home is a "shard-crossing" finding — the lock-free
    discipline of the netisr model was violated. *)

(* --- reincarnation checker ------------------------------------------------ *)

val reinc_shard_killed : t -> space:int -> shard:int -> unit
(** A protocol shard was killed for micro-reboot. *)

val reinc_expect : t -> space:int -> shard:int -> sock:int -> unit
(** Socket [sock] (lifetime uid) was live in the killed shard: its
    reincarnation must rebuild it, or it is orphaned state. *)

val reinc_restored : t -> space:int -> shard:int -> sock:int -> unit
(** The reborn shard rebuilt [sock] from the cross-shard registry.  If
    nothing expected matches, the registry held a "stale-registry"
    entry — state for a socket the dead shard no longer had. *)

val reinc_shard_reborn : t -> space:int -> shard:int -> unit
(** The shard finished reincarnating.  Every expected socket not
    restored by now is an "orphaned-state" finding. *)

val reinc_rights_residue :
  t -> space:int -> shard:int -> port:int -> pname:string -> unit
(** After the reboot the netserver still holds rights to a port backing
    no live socket — a "rights-residue" finding. *)

val reinc_budget_exhausted :
  t -> space:int -> path:string -> restarts:int -> unit
(** A supervised server burned through its windowed restart budget and
    was demoted to degraded mode.  Recorded as a "budget-exhausted"
    finding (visible in the finding list) but counted outside
    {!total_findings}: demotion is the policy working as designed. *)

(* --- lock-overlap checker ------------------------------------------------- *)

val lock_hold :
  t -> space:int -> res:string -> rdesc:string -> tid:int -> cpu:int ->
  exclusive:bool -> from:int -> until:int -> unit
(** Thread [tid] on [cpu] held lock [res] (described by [rdesc]) over
    the simulated cycles [\[from, until)], shared or [exclusive].  A hold
    that overlaps one of the lock's recent holds by another thread, when
    either of the two is exclusive, is a "lock-overlap" finding: the
    lock failed to exclude in simulated time. *)

(* --- reporting ---------------------------------------------------------- *)

val report : t -> report
(** The columns and the findings so far.  Leak findings are computed
    here, by scanning live entries against dead ports. *)

val count : report -> string -> int
(** [count rep "wait_cycles"]: one column, by its JSON name.  Raises
    [Not_found] for a name that is not a column. *)

val total_findings : report -> int
(** Findings of every kind but the informational "budget-exhausted". *)

val with_checker : bool -> (unit -> 'a) -> 'a * report option
(** [with_checker true f] runs [f] with a fresh checker installed and
    returns its report; [with_checker false f] just runs [f]. *)

val to_json : report -> Bench_json.t
(** The columns, [total_findings] and the finding list: the
    ["machcheck"] block of every BENCH file and an entry of
    [BENCH_check.json]. *)
