(** Microbenchmarks: Table 2 (trap vs RPC) and the file-server factor
    (E5).  E3 is a column of {!Ipc_stress}. *)

type table2_row = {
  t2_label : string;
  t2_instructions : float;
  t2_cycles : float;
  t2_bus_cycles : float;
  t2_cpi : float;
  t2_icache_misses : float;  (** the misses that explain the RPC's CPI *)
  t2_tlb_misses : float;
}

val table2 : ?iters:int -> unit -> table2_row * table2_row
(** [(thread_self, rpc32)] per-operation counter readings on the Pentium
    machine, measured warm exactly as the paper programmed the counter
    hardware. *)

type factor = {
  fx_rpc_cycles_per_op : float;  (** multi-server: file server over RPC *)
  fx_trap_cycles_per_op : float;  (** monolithic: in-kernel file system *)
  fx_factor : float;
}

val fileserver_factor : ?ops:int -> unit -> factor
(** The same warm open/read/write/close mix against the user-level file
    server and against the identical code in-kernel. *)
