(** Execution footprints.

    A footprint is the cost-model representation of running a stretch of
    simulated software: which code bytes were fetched (and from where),
    which data addresses were loaded and stored, and any architectural
    events (address-space switch, uncached device access, raw stalls).
    The {!Cpu} replays a footprint against the cache/TLB models and
    charges the performance counters.

    Footprints compose by list concatenation, so a kernel path is the
    concatenation of its stages — entry stub, service routine, copy loop,
    scheduler, exit — each contributed by the module that owns that code
    region. *)

type item =
  | Fetch of { region : Layout.region; offset : int; bytes : int }
      (** Straight-line execution of [bytes] of instructions starting at
          [region.base + offset]. *)
  | Load of { addr : int; bytes : int }
  | Store of { addr : int; bytes : int }
  | Uncached_read of { addr : int; bytes : int }
      (** Device read: always a bus transaction, bypasses the D-cache. *)
  | Uncached_write of { addr : int; bytes : int }
  | Switch_address_space
      (** CR3 write: fixed cost plus a TLB flush. *)
  | Stall of int  (** Raw stall cycles (pipeline drain, I/O wait). *)

type t = item list

val fetch : Layout.region -> ?offset:int -> bytes:int -> unit -> item
val load : addr:int -> bytes:int -> item
val store : addr:int -> bytes:int -> item

val run :
  Layout.region ->
  ?offset:int ->
  code_bytes:int ->
  ?loads:(int * int) list ->
  ?stores:(int * int) list ->
  unit ->
  t
(** [run region ~code_bytes ~loads ~stores ()] is the common shape of a
    routine: one fetch run plus its data traffic ([(addr, bytes)] pairs). *)

val copy : src:int -> dst:int -> bytes:int -> t
(** Data movement of [bytes] from [src] to [dst] as load/store pairs in
    cache-line-sized chunks (the physical-copy primitive of the IBM RPC
    path). *)

val code_bytes : t -> int
(** Total fetched bytes in the footprint. *)

(** {1 Machine-state accounting}

    The bytes of hardware bookkeeping state the machine itself carries.
    Caches and TLBs replicate per CPU, so density measurements over an
    SMP machine must scale them by [Config.ncpus]; the coherence
    directory is shared and counted once (zero on a uniprocessor). *)

type machine_state = {
  ms_ncpus : int;
  ms_cache_bytes_per_cpu : int;  (** I$ + D$ data plus tag/state arrays *)
  ms_tlb_bytes_per_cpu : int;
  ms_bus_directory_bytes : int;  (** write-invalidate directory, shared *)
  ms_total_bytes : int;
}

val machine_state : Config.t -> machine_state
