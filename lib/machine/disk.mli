(** Simulated block storage device.

    Holds real block contents (so the file systems above it have genuine
    on-disk layouts) and models service time as seek + per-block transfer.
    Requests are serviced one at a time in FIFO order; completion raises
    the device's interrupt line and then invokes the request's
    continuation.  DMA transfer bus traffic is charged on completion.
    Every file-system access goes through that queue; {!read_image} and
    {!write_image} are raw accessors for mkfs and tests.

    The media is sparse: the host stores it in 32 KiB chunks allocated
    on first write, and a range never written reads as zeros.  A booted
    machine costs the host the chunks it writes, not the 20 MB of
    {!default_geometry}: creating the disk allocates 5 KiB, and a
    perfbench os2-hot run ends with 15 chunks (480 KiB) allocated. *)

type t

type geometry = {
  blocks : int;
  block_size : int;
  seek_cycles : int;  (** fixed positioning cost per request *)
  transfer_cycles_per_block : int;
}

val default_geometry : geometry
(** 20 MB at 512-byte blocks with early-1990s service times. *)

val create :
  Cpu.t -> Event_queue.t -> Irq.t -> line:int -> name:string -> geometry -> t

val name : t -> string
val geometry : t -> geometry

val read : t -> block:int -> count:int -> (bytes -> unit) -> unit
(** Asynchronous read of [count] blocks starting at [block]; the
    continuation receives the data when the simulated transfer completes.
    @raise Invalid_argument on out-of-range requests. *)

val write : t -> block:int -> bytes list -> (unit -> unit) -> unit
(** Asynchronous gather write: the buffers are laid out back to back from
    [block] on, and the request costs one seek plus a transfer per block
    of their total.  At completion each buffer is applied as its own
    media write, in list order: each consults the write interceptor,
    counts in {!writes_applied} and ages reorder-held writes, exactly as
    a separate request would.  A power cut at the [k]th buffer lands the
    ones before it and none after.  The buffers are not copied or
    concatenated, so callers must leave them unchanged until completion.
    @raise Invalid_argument unless every buffer is a non-empty whole
    number of blocks and the run is in range. *)

val read_image : t -> block:int -> count:int -> bytes
(** Raw image accessor: a copy of [count] blocks of the media.  It
    bypasses the request queue, the write interceptor, the counters and
    the cost model, so it is for mkfs and test inspection only; the file
    systems read through {!read}.
    @raise Invalid_argument on out-of-range requests. *)

val write_image : t -> block:int -> bytes -> unit
(** Raw image accessor: store whole blocks straight onto the media.  It
    bypasses the request queue, the write interceptor, the counters and
    the cost model, so it is for mkfs and test set-up only; the file
    systems write through {!write}.  Dropped silently while the device
    is powered off.
    @raise Invalid_argument unless the data is a non-empty whole number
    of blocks and in range. *)

val barrier : t -> (unit -> unit) -> unit
(** Ordering point: runs the continuation once every previously
    submitted request has reached the media, forcing any reorder-held
    writes to land first.  The device has no volatile write cache, so a
    barrier is not a request and costs no seek: on an idle device it
    runs at once, otherwise it rides on the newest queued request (or
    the in-flight one) and runs in that request's interrupt delivery,
    after the request's own continuation.  Barriers riding on one
    request run in the order they were called. *)

(** Decision an installed write interceptor returns for one media write
    (one buffer of a request's gather list) as it reaches the media.
    The [int] payloads are raw entropy from the fault plan's PRNG; the
    disk maps them into range. *)
type write_fault =
  | Wf_pass
  | Wf_power_cut
      (** freeze the store: this write and all later ones are lost *)
  | Wf_torn of int  (** only a prefix of the write lands *)
  | Wf_bit_rot of int  (** the write lands, then one bit flips *)
  | Wf_reorder of int
      (** hold the write past this many later writes (or the next barrier) *)

val set_write_interceptor :
  t -> (block:int -> data:bytes -> write_fault) option -> unit
(** Installed by the driver layer to route media writes through a fault
    plan.  Consulted at apply time, in FIFO order.  Not consulted for
    {!write_image} or while powered off. *)

val power_restore : t -> unit
val powered_on : t -> bool

val writes_applied : t -> int
(** Number of media writes (one per gather-list buffer) that reached the
    media while powered — the crash-point index space for recovery
    enumeration. *)

val requests_served : t -> int
(** Reads and writes completed; barriers are not requests and do not
    count. *)
