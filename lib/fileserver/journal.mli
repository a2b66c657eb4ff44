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
    suffix of record history.  Slots are reused only past a checkpoint:
    the engine durably flushes the home cache, then writes a checkpoint
    record carrying "checkpointed through sequence S".  Recovery replays
    committed transactions with sequences above the newest checkpoint
    and fences the result behind a fresh checkpoint, so replay is
    idempotent across repeated crashes. *)

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
  flush_home:(unit -> unit) ->
  t
(** Bind an engine to the ring at [start] and run recovery immediately:
    scan, replay committed-but-uncheckpointed transactions through
    [home_write], durably flush, and fence with a checkpoint (its scan
    is {!last_recovery}).  [flush_home] must make the home cache durable
    (flush + barrier).
    @raise Invalid_argument if the ring has fewer than 8 blocks. *)

val commit : t -> (int * bytes) list -> unit
(** Durably journal one transaction's (block, image) writes: one disk
    request (two on a ring wrap) and one barrier.  Blocks the calling
    thread once, on that barrier.  The caller is responsible for then
    applying the images to the cache.
    Operations larger than one descriptor (61 images on 512-byte
    blocks) or the ring are committed in bounded batches (write-ahead
    ordering kept; whole-operation atomicity is not); each batch but
    the last is applied through [home_write] before the next commits,
    so a checkpoint never retires images that are not home. *)

val recover : t -> recovery
(** Re-run the recovery scan (used when a supervised restart hands the
    engine a freshly invalidated cache). *)

val last_recovery : t -> recovery
(** The most recent recovery scan: the one {!attach} ran, or the last
    {!recover}. *)

val records_written : t -> int
(** Journal-record writes since {!attach}, recovery checkpoints
    included. *)
