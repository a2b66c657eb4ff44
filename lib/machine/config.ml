type cache_geometry = { size : int; line : int; assoc : int }

type t = {
  name : string;
  cpu_mhz : int;
  bytes_per_instruction : int;
  base_cpi : float;
  icache : cache_geometry;
  dcache : cache_geometry;
  line_fill_cycles : int;
  line_fill_bus_cycles : int;
  write_bus_cycles : int;
  tlb_entries : int;
  tlb_miss_cycles : int;
  tlb_miss_bus_cycles : int;
  address_space_switch_cycles : int;
  page_size : int;
  memory_bytes : int;
  ncpus : int;
  coherence_miss_cycles : int;
  ipi_cycles : int;
}

let mib n = n * 1024 * 1024
let kib n = n * 1024

let pentium_133 =
  {
    name = "pentium-133";
    cpu_mhz = 133;
    bytes_per_instruction = 4;
    base_cpi = 2.0;
    icache = { size = kib 8; line = 32; assoc = 2 };
    dcache = { size = kib 8; line = 32; assoc = 2 };
    line_fill_cycles = 26;
    line_fill_bus_cycles = 6;
    write_bus_cycles = 4;
    tlb_entries = 64;
    tlb_miss_cycles = 30;
    tlb_miss_bus_cycles = 4;
    address_space_switch_cycles = 40;
    page_size = 4096;
    memory_bytes = mib 16;
    ncpus = 1;
    coherence_miss_cycles = 40;
    ipi_cycles = 60;
  }

let ppc604_133 =
  {
    name = "ppc604-133";
    cpu_mhz = 133;
    bytes_per_instruction = 4;
    base_cpi = 1.85;
    icache = { size = kib 16; line = 32; assoc = 4 };
    dcache = { size = kib 16; line = 32; assoc = 4 };
    line_fill_cycles = 22;
    line_fill_bus_cycles = 6;
    write_bus_cycles = 4;
    tlb_entries = 128;
    tlb_miss_cycles = 28;
    tlb_miss_bus_cycles = 4;
    address_space_switch_cycles = 30;
    page_size = 4096;
    memory_bytes = mib 64;
    ncpus = 1;
    coherence_miss_cycles = 36;
    ipi_cycles = 50;
  }

let with_memory t ~bytes = { t with memory_bytes = bytes }

let with_ncpus t ~n =
  if n < 1 then invalid_arg "Config.with_ncpus: need at least one CPU";
  { t with ncpus = n }

let pages t = t.memory_bytes / t.page_size

(* Machine-state accounting: the bytes of hardware bookkeeping state the
   simulated machine itself carries.  Caches and TLBs are per-CPU
   structures, so an SMP machine multiplies them by [ncpus] — a density
   measurement that counted one copy would undercount the machine's real
   footprint on every added processor. *)

type machine_state = {
  ms_ncpus : int;
  ms_cache_bytes_per_cpu : int;  (* I$ + D$ data plus tag/state arrays *)
  ms_tlb_bytes_per_cpu : int;
  ms_bus_directory_bytes : int;  (* coherence directory, one per machine *)
  ms_total_bytes : int;
}

let cache_state_bytes g =
  (* data array plus a tag/state word per line *)
  let lines = g.size / g.line in
  g.size + (lines * 4)

let machine_state t =
  let cache_bytes = cache_state_bytes t.icache + cache_state_bytes t.dcache in
  (* one TLB entry: virtual page tag, physical frame, permission bits *)
  let tlb_bytes = t.tlb_entries * 8 in
  (* the write-invalidate directory exists only on multiprocessors; its
     shadow is sized like a page-table leaf per tracked line window *)
  let dir_bytes = if t.ncpus > 1 then 4096 * 8 else 0 in
  {
    ms_ncpus = t.ncpus;
    ms_cache_bytes_per_cpu = cache_bytes;
    ms_tlb_bytes_per_cpu = tlb_bytes;
    ms_bus_directory_bytes = dir_bytes;
    ms_total_bytes = (t.ncpus * (cache_bytes + tlb_bytes)) + dir_bytes;
  }

let pp ppf t =
  Format.fprintf ppf
    "%s: %d MHz x%d CPU%s, I$ %dK/%d-way, D$ %dK/%d-way, %d MB RAM" t.name
    t.cpu_mhz t.ncpus
    (if t.ncpus = 1 then "" else "s")
    (t.icache.size / 1024) t.icache.assoc (t.dcache.size / 1024)
    t.dcache.assoc
    (t.memory_bytes / (1024 * 1024))
