(** Virtual memory: objects, maps, faults, paging and coerced memory.

    The design follows Mach 3.0 — page-oriented, lazy, copy-on-write,
    with memory objects optionally backed by an external pager — plus the
    two extensions the paper describes: {e coerced memory} (shared memory
    that appears at the same address in every address space, required by
    OS/2 semantics) and eager, commitment-oriented allocation (what the
    OS/2 personality's byte-granularity manager asks for underneath).

    Physical residency is accounted against a global frame pool sized by
    the machine's memory; exceeding it triggers FIFO eviction through the
    default pager.  A faulting thread blocks for the duration of the
    simulated page-in I/O, which is what makes the 16 MB Table 1 machine
    page visibly under the graphics working sets. *)

open Ktypes

val object_create :
  Sched.t -> ?backing:backing_store -> ?tag:string -> bytes:int -> unit ->
  vm_object

val allocate :
  Sched.t -> task -> bytes:int -> ?eager:bool -> unit -> int
(** Anonymous memory in the task's map; returns the base address.
    [eager] commits (makes resident) every page immediately. *)

val map_object :
  Sched.t -> task -> vm_object -> ?at:int -> ?offset:int -> bytes:int ->
  ?prot:protection -> ?cow:bool -> ?coerced:bool -> unit -> int
(** Map [bytes] of the object into the task's map; returns the mapped
    base address (fresh from the arena unless [at] is given).
    @raise Kern_error [Kern_no_space] when [at] overlaps an entry. *)

val allocate_coerced : Sched.t -> task list -> bytes:int -> int
(** One object mapped at the same address in every listed task — the
    paper's coerced memory.  Additional tasks can be attached later with
    {!map_object} [~at:addr ~coerced:true]. *)

val deallocate : Sched.t -> task -> addr:int -> unit
(** Remove the entry containing [addr] and release its resident pages.
    @raise Kern_error [Kern_invalid_argument] when nothing is mapped. *)

val touch :
  Sched.t -> task -> addr:int -> ?write:bool -> bytes:int -> unit -> unit
(** Access memory: resolves faults page by page (zero-fill, COW copy or
    pager I/O — the calling thread blocks for I/O) and charges the data
    traffic through the cache model.
    @raise Kern_error [Kern_protection_failure] on a write to read-only
    memory, [Kern_invalid_argument] on an unmapped address. *)

val virtual_copy :
  Sched.t -> src_task:task -> addr:int -> bytes:int -> dst_task:task -> int
(** The Mach 3.0 out-of-line transfer: map a copy-on-write shadow of the
    source range into the destination, paying the per-page map
    manipulation now and the copy on first write.  Returns the address in
    the destination map. *)

val remap_move :
  Sched.t -> src_task:task -> addr:int -> bytes:int -> dst_task:task -> int
(** Zero-copy donation: the receiver maps the sender's pages over
    [addr, addr+bytes) and the sender's range becomes fresh zero-fill
    memory.  Charged one map-entry chunk plus a TLB shootdown — never
    per byte.  Returns the address in the destination map.
    @raise Kern_error [Kern_invalid_argument] unless the range is
    page-aligned and covered by a single map entry. *)

val remap_cow :
  Sched.t -> src_task:task -> addr:int -> bytes:int -> dst_task:task -> int
(** Zero-copy sharing: both sides end up shadowing a frozen snapshot of
    the range, so a later write on either side breaks into a private
    page and can never be observed by the other.  Same cost shape and
    alignment requirements as {!remap_move}. *)

val write_stamp : Sched.t -> task -> addr:int -> int -> unit
val read_stamp : Sched.t -> task -> addr:int -> int
(** Page-content stamps: the simulator carries no real bytes, so a
    one-word stamp per page stands in for contents when tests assert
    transfer correctness.  Both perform the access (faults, COW breaks,
    cache traffic) that a real one-word load/store at [addr] would. *)

val find_entry : vm_map -> int -> vm_entry option

val resident_pages : Sched.t -> int
val committed_bytes : task -> int
(** Eager entries count in full; lazy entries count their resident
    pages. *)

val entry_count : task -> int

val set_default_backing : Sched.t -> backing_store -> unit

val page_faults : Sched.t -> int
(** Page faults since boot (stored per scheduler). *)
