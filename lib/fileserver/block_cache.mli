(** Write-back block cache over the simulated disk.

    Hits charge a short code path plus the data traffic; misses submit a
    disk request and wait for the transfer through {!Mach.Sched.await}.
    A thread blocks; the boot context (mounts and journal replays before
    any thread runs) steps device events, and the boot CPU's clock pays
    for the I/O.  Every read and write-back goes through the disk's
    request queue, in thread context or not. *)

type t

val create : Mach.Kernel.t -> Machine.Disk.t -> ?capacity:int -> unit -> t
(** [capacity] is in blocks (default 256 = 128 KiB). *)

val read : t -> int -> bytes
(** A fresh copy of the block's contents. *)

val write : t -> ?logged:int -> int -> bytes -> unit
(** Install new contents (dirty until evicted/flushed).  [logged] is
    the journal commit sequence of these contents' newest journal copy;
    without it the contents have none.
    @raise Invalid_argument unless exactly one block long. *)

val flush : ?through:int -> t -> unit
(** Queue write-back of every dirty block, in block order
    (fire-and-forget: the disk services them in order, delaying
    subsequent misses).  With [through], only the dirty blocks logged at
    or below it and those written without [logged]: a journal
    checkpoint through [through] leaves a block logged after it dirty,
    because its newer copy is still live in the ring.  Each maximal run
    of consecutive flushed blocks is one gather request, so a run pays
    one seek; each of its blocks is still its own media write for
    faults, crash points and reorder holds, and {!writebacks} still
    counts blocks. *)

val flush_wait : ?through:int -> t -> unit
(** Durable flush: {!flush}, then wait on a disk barrier until every
    write submitted so far (and any reorder-held write) has reached the
    media.  The journal checkpoints through this. *)

val barrier_wait : t -> unit
(** The barrier half of {!flush_wait} alone. *)

val invalidate : t -> unit
(** Drop every cached block {e without} write-back and reset the mapout
    pool.  Used when recovering a journalled file system: the journal is
    the truth, and dirty blocks from the dead incarnation must not mask
    replayed state. *)

val lru_block : t -> int option
(** The block that would be evicted next (least recently accessed), if
    the cache is non-empty. *)

val lru_slots : t -> int option
(** The number of cached blocks, if the LRU list and the block table
    agree slot for slot (every listed slot is its block's table slot and
    every table slot is listed); [None] when they disagree. *)

val block_size : t -> int
val hits : t -> int
val misses : t -> int
val writebacks : t -> int

val kernel : t -> Mach.Kernel.t
val disk : t -> Machine.Disk.t

val journal : t -> Journal.t option
val set_journal : t -> Journal.t -> unit
(** The journal mounted over this cache, which holds its statistics:
    they live exactly as long as the cache does. *)

(** {2 Mapout pool}

    A small ring of pages the cache lends to zero-copy replies: the file
    server assembles whole blocks into a pool page and COW-remaps that
    page into the client instead of copying the bytes through a message.
    Pages acquired with [pin:true] stay off-limits until released;
    acquiring over an unpinned page that is still mapped out reports a
    mapout-eviction finding through Machcheck. *)

val map_pool : t -> Mach.Ktypes.task -> unit
(** Allocate and map the pool into [task]'s address space (idempotent;
    the first caller wins). *)

val pool_acquire : t -> pages:int -> pin:bool -> int option
(** A run of [pages] consecutive pool pages, or [None] when the pool is
    unmapped or every candidate run holds a pinned page (callers fall
    back to the copy path). *)

val pool_fill : t -> dst:int -> int -> bytes
(** Read a block through the cache and charge the store that lands it at
    pool address [dst]; returns the block contents. *)

val pool_release : t -> addr:int -> pages:int -> unit
(** Unpin and forget a mapped-out run (the reply's pages, once the
    client is done with them). *)

val pool_pinned : t -> int
(** Currently pinned pool pages (observability for tests). *)

val pool_reset : t -> unit
(** Unpin and unmap every pool page — restart reclamation for a dead
    server incarnation whose replies can no longer be released by their
    clients. *)
