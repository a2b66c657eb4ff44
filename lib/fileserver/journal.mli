(** Write-ahead journal over a reserved ring of disk blocks.

    A transaction is the set of block images mutated by one file-system
    operation.  {!commit} writes a transaction of k images as k+2
    records, [\[descriptor\]\[image 1\] … \[image k\]\[commit\]], in
    FIFO disk order, as one gather request per contiguous run of ring
    slots (two when the records wrap past the ring's end), and blocks
    the calling thread only on the closing barrier.  The descriptor
    tags each image with its home block and checksum (at most 61 tags
    in a 512-byte block); the commit record is the durability point,
    after which the caller applies the same images to the write-back
    cache (home locations).

    Every record occupies one ring slot and one sequence number with
    [slot = seq mod ring-size], so the ring always holds a contiguous
    suffix of record history.  Slots are reused only past a checkpoint.
    When the next transaction needs a slot still holding a live record,
    the engine picks S: the newest commit record in the older half of
    the ring, or, if that does not free enough slots, the first commit
    record that does (the newest record if none does).  It durably
    flushes home the cached blocks whose newest journal copy is at or
    below S, plus every dirty block with no journal copy, then writes a
    checkpoint record carrying "checkpointed through sequence S".  A
    block logged again after S stays dirty: its newer copy is still live
    in the ring, and replay rewrites that block whole.  So a checkpoint
    retires about half the ring and writes home only the blocks whose
    newest copy it retires.

    Recovery reads the whole ring in one disk request, replays committed
    transactions with sequences above the newest checkpoint and fences
    the result behind a fresh checkpoint that flushes every dirty block,
    so replay is idempotent across repeated crashes. *)

type t

type recovery = {
  rv_scanned : int;  (** journal slots scanned *)
  rv_replayed_txns : int;
  rv_replayed_blocks : int;
  rv_discarded : int;
      (** transactions dropped: no commit record, or its descriptor or
          an image failed its checksum (torn or rotted journal write) *)
}

val clean_scan : recovery

val attach :
  Mach.Kernel.t ->
  Machine.Disk.t ->
  start:int ->
  blocks:int ->
  home_write:(int -> bytes -> unit) ->
  flush_home:(through:int -> unit) ->
  t
(** Bind an engine to the ring at [start] and run recovery immediately:
    scan, replay committed-but-uncheckpointed transactions through
    [home_write], durably flush, and fence with a checkpoint (its scan
    is {!last_recovery}).  [flush_home ~through] must make durable
    (flush + barrier) every dirty home block written with a journal
    sequence at or below [through], and every one written without a
    sequence ([home_write]'s writes are of that kind); the fence passes
    [max_int].
    @raise Invalid_argument if the ring has fewer than 8 blocks. *)

val commit : t -> (int * bytes) list -> int
(** Durably journal one transaction's (block, image) writes: one disk
    request (two on a ring wrap) and one barrier.  Blocks the calling
    thread once, on that barrier.  Returns the sequence of the
    transaction's commit record; the caller then applies the images to
    the cache tagged with it, so a checkpoint through a lower sequence
    leaves them dirty.
    Operations larger than one descriptor (61 images on 512-byte
    blocks) or the ring are committed in bounded batches (write-ahead
    ordering kept; whole-operation atomicity is not); each batch but
    the last is applied through [home_write] before the next commits,
    so a checkpoint never retires images that are not home.  Their
    result is the first batch's commit sequence, at or below every
    image's newest copy. *)

val recover : t -> recovery
(** Re-run the recovery scan (used when a supervised restart hands the
    engine a freshly invalidated cache). *)

val last_recovery : t -> recovery
(** The most recent recovery scan: the one {!attach} ran, or the last
    {!recover}. *)

val records_written : t -> int
(** Journal-record writes since {!attach}, recovery checkpoints
    included. *)

val checkpoints : t -> int
(** Checkpoints made since {!attach} to free ring slots (recovery
    fences not included). *)

val blocks : t -> int
(** The ring's size in slots. *)
