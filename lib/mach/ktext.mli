(** Kernel code and data placement, and the cost chunks of every kernel
    path.

    Each kernel routine the simulation models — trap entry, the RPC send
    path, the old [mach_msg] path, the scheduler, the VM fault handler —
    is a [chunk]: a stretch of instruction bytes at a fixed offset inside
    a kernel text region plus the data traffic it performs.  Executing a
    path replays its chunks through the CPU model, so instruction counts,
    cache behaviour and bus traffic arise from placement and size, not
    from hard-coded results.

    Chunk offsets are chosen the way a real (un-cache-coloured) kernel
    link map falls out: page-aligned subsystems whose hot lines partially
    alias in a small 2-way I-cache.  The short trap path is conflict-free;
    the much longer RPC and [mach_msg] paths alias with user stubs and
    with each other — which is exactly the paper's explanation for the
    RPC CPI ("misses on the I-cache"). *)

type t

type chunk

val create : Machine.t -> t

val machine : t -> Machine.t

val text : t -> Machine.Layout.region
(** Core kernel text. *)

val data : t -> Machine.Layout.region
(** Kernel data structures. *)

val exec : t -> ?frame:int -> chunk list -> unit
(** Replay the chunks; [frame] is the current kernel stack frame address
    (defaults to a fixed scratch frame). *)

val exec1 : t -> ?frame:int -> chunk -> unit
(** Replay a single chunk without building a list — the allocation-free
    form the IPC hot paths use. *)

val exec_n : t -> ?frame:int -> int -> chunk -> unit
(** Replay one chunk [n] times (per-page loops and the like). *)

val copy : t -> src:int -> dst:int -> bytes:int -> unit
(** Physical data copy: executes the copy-loop code per 32-byte line plus
    the load/store traffic.  The primitive behind the IBM RPC's
    by-reference parameter passing. *)

val buffer_alloc : t -> bytes:int -> int
(** Reserve a kernel message buffer from the [kernel.msg-buffers] free
    list.  Small sizes are served LIFO from per-size quick lists (each
    hit counts as a recycle in {!buffer_stats}); other requests fall
    back to next-fit over 32-byte granule extents.  The returned address
    plus [bytes] never exceeds the region; true exhaustion flushes the
    quick lists and, as a last resort, resets the arena (counted as a
    reset in {!buffer_stats}). *)

val buffer_free : t -> int -> unit
(** Return a buffer to the free list (coalescing with neighbours).
    Unknown or stale addresses are ignored by the allocator, but a
    release of an already-released buffer is reported to an attached
    Machcheck instance as a double-release. *)

val buffer_use : t -> int -> unit
(** Tell an attached Machcheck instance that a kernel path is touching
    this buffer, so use-after-release can be flagged.  No-cost no-op
    when no checker is attached. *)

val set_checks : t -> Check.t -> unit
(** Attach Machcheck's buffer-lifetime sanitizer to this kernel's
    message-buffer free list.  [create] self-attaches to
    [Check.installed ()] if a checker is globally installed. *)

type buffer_stats = {
  bs_allocs : int;
  bs_frees : int;
  bs_recycles : int;  (** allocations served by reusing a freed buffer *)
  bs_resets : int;  (** whole-arena resets forced by exhaustion *)
  bs_in_use_bytes : int;
  bs_peak_bytes : int;
  bs_capacity_bytes : int;
}

val buffer_stats : t -> buffer_stats

val buffer_region : t -> Machine.Layout.region
(** The [kernel.msg-buffers] region itself (bounds checking in tests). *)

(** {1 Trap path} *)

val trap_entry : chunk
val syscall_dispatch : chunk
val thread_self_service : chunk
val generic_service : chunk
(** A typical in-kernel service routine body (used by the monolithic OS
    and by kernel services other than [thread_self]). *)

val trap_exit : chunk

(** {1 IBM RPC path} *)

val rpc_entry : chunk
(** The rework's simplified kernel entry for RPC traps. *)

val rpc_send : chunk
val rpc_reply : chunk
val cap_translate : chunk
val rpc_handoff : chunk

(** {1 Mach 3.0 mach_msg path} *)

val mach_msg_entry : chunk
val msg_copyin : chunk
val msg_copyout : chunk
val right_transfer : chunk
val msg_enqueue : chunk
val msg_dequeue : chunk
val receive_path : chunk
val reply_port_setup : chunk

(** The cheap path taken when a thread's cached reply port is reused
    instead of allocated and destroyed per interaction. *)
val reply_port_reuse : chunk
val mach_msg_exit : chunk
val port_alloc_path : chunk
val port_dealloc_path : chunk
val virtual_copy_per_page : chunk
(** Map-manipulation cost per page of out-of-line data (the Mach 3.0
    virtual-copy strategy replaced by physical copy in the rework). *)

(** {1 Scheduler, VM, interrupts, devices} *)

val sched_pick : chunk
val context_switch : chunk
val pmap_switch : chunk
val vm_fault_path : chunk
val vm_map_enter : chunk

val vm_remap_entry : chunk
(** Per-map-entry cost of the zero-copy remap path (clip/split source
    entry, enter into the destination map, adjust protections) — charged
    once per region regardless of byte count. *)

val vm_page_insert : chunk
val pageout_path : chunk
val irq_entry : chunk
val irq_reflect : chunk
val dma_setup : chunk
val timer_service : chunk
val sync_fast : chunk
val sync_block : chunk

val notify_path : chunk
(** Dead-name notification delivery when a watched port dies. *)

val fault_inject : chunk
(** Fault-plan bookkeeping, charged only when a fault is injected. *)

val exec_in :
  t -> Machine.Layout.region -> offset:int -> bytes:int -> unit
(** Fetch a stretch of some other region's code (user stubs, server
    loops) through the same CPU. *)
