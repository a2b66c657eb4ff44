(** Static description of a simulated machine.

    The configuration fixes the microarchitectural parameters that the cost
    model charges against: cache and TLB geometry, miss penalties, bus
    transaction costs and physical memory size.  Two presets reproduce the
    hardware used in the paper's evaluation: a 133 MHz Pentium (the Table 2
    machine, 16 MB in the Table 1 comparison) and a 133 MHz PowerPC 604
    (the Table 1 WPOS machine, 64 MB). *)

type cache_geometry = {
  size : int;  (** total bytes *)
  line : int;  (** line size in bytes *)
  assoc : int;  (** ways per set *)
}

type t = {
  name : string;
  cpu_mhz : int;
  bytes_per_instruction : int;
      (** average encoded instruction length; fetched bytes are converted
          to retired instructions with this divisor *)
  base_cpi : float;  (** cycles per instruction absent any stall *)
  icache : cache_geometry;
  dcache : cache_geometry;
  line_fill_cycles : int;  (** stall cycles per cache line fill *)
  line_fill_bus_cycles : int;  (** bus cycles per cache line fill *)
  write_bus_cycles : int;
      (** bus cycles per 4-byte word stored (write-through D-cache) *)
  tlb_entries : int;
  tlb_miss_cycles : int;  (** page-walk stall per TLB miss *)
  tlb_miss_bus_cycles : int;  (** bus cycles per page walk *)
  address_space_switch_cycles : int;
      (** fixed pipeline/CR3-write cost of an address-space switch,
          excluding the TLB refill cost it induces *)
  page_size : int;
  memory_bytes : int;
  ncpus : int;
      (** simulated processors sharing the bus; 1 everywhere except the
          SMP experiments, so single-core series are untouched *)
  coherence_miss_cycles : int;
      (** stall for a cache-to-cache line transfer when a CPU touches a
          line another CPU wrote (only charged when [ncpus > 1]) *)
  ipi_cycles : int;
      (** sender-side cost of raising an inter-processor interrupt *)
}

val pentium_133 : t
(** The Table 2 measurement machine: 8 KB + 8 KB 2-way 32-byte-line
    caches, write-through data cache, 16 MB of memory. *)

val ppc604_133 : t
(** The WPOS Table 1 machine: 16 KB + 16 KB 4-way caches, 64 MB. *)

val with_memory : t -> bytes:int -> t
(** [with_memory c ~bytes] is [c] resized to [bytes] of physical memory. *)

val with_ncpus : t -> n:int -> t
(** [with_ncpus c ~n] is [c] with [n] simulated processors.
    @raise Invalid_argument when [n < 1]. *)

val pages : t -> int
(** Number of physical page frames. *)

(** {1 Machine-state accounting}

    The bytes of hardware bookkeeping state the machine itself carries.
    Caches and TLBs replicate per CPU, so density measurements over an
    SMP machine must scale them by [ncpus]; the coherence directory is
    shared and counted once (zero on a uniprocessor). *)

type machine_state = {
  ms_ncpus : int;
  ms_cache_bytes_per_cpu : int;  (** I$ + D$ data plus tag/state arrays *)
  ms_tlb_bytes_per_cpu : int;
  ms_bus_directory_bytes : int;  (** write-invalidate directory, shared *)
  ms_total_bytes : int;
}

val machine_state : t -> machine_state

val pp : Format.formatter -> t -> unit
