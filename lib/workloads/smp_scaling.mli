(** The smp-scaling experiment: throughput-vs-cores curves.

    Drives the ipc-stress round-trip engine (three placement policies:
    colocated pairs, crossed pairs, everything-on-CPU-0 with work
    stealing) and the E1-style file-server edit workload at 1/2/4/8
    simulated CPUs, and reports aggregate throughput, speedup against
    the 1-CPU anchor, and the SMP cost counters (IPIs, scheduler
    messages, steals, coherence misses, bus stalls). *)

type placement = Colocated | Crossed | Unbalanced

type point = {
  sp_workload : string;  (** ["ipc"] or ["fileserver"] *)
  sp_placement : string;
  sp_ncpus : int;
  sp_ops : int;
  sp_wall_cycles : int;  (** furthest-ahead CPU clock at completion *)
  sp_throughput : float;  (** ops per million cycles of wall clock *)
  sp_speedup : float;  (** vs the 1-CPU point of the same series *)
  sp_ipis : int;
  sp_xmsgs : int;  (** cross-CPU scheduler messages delivered *)
  sp_steals : int;
  sp_coherence_misses : int;
  sp_bus_stall_cycles : int;
  sp_bus_transactions : int;
  sp_idle_cycles : int;
      (** wall x ncpus minus the cycles charged to every CPU: time a CPU's
          clock skipped forward with nothing to run (disk waits, empty
          queues) *)
  sp_disk_requests : int;  (** requests the disk served, boot mount included *)
  sp_lock_waits : int;
      (** fileserver only (0 for ipc): mount-lock acquires that waited *)
  sp_lock_wait_cycles : int;
      (** fileserver only: cycles they waited, blocked or spinning up to
          a release stamp *)
  sp_shared_holds : int;  (** fileserver only: mount-lock holds taken shared *)
  sp_crossed_calls : int;
      (** fileserver only: calls served on a CPU other than their
          caller's *)
}

type result = {
  r_cpus : int list;
  r_pairs : int;
  r_iters : int;
  r_bytes : int;
  r_clients : int;
  r_sessions : int;
  r_points : point list;
  r_state : Machine.Config.machine_state list;
      (** per-CPU machine-state bytes at each CPU count (density) *)
}

val run :
  ?cpus:int list -> ?pairs:int -> ?iters:int -> ?bytes:int -> ?clients:int ->
  ?sessions:int -> unit -> result
(** Defaults: CPUs [1;2;4;8], 8 pairs x 150 round trips of 512 bytes,
    6 clients x 4 edit sessions. *)

val ipc_speedup : result -> ncpus:int -> float
(** Colocated-ipc throughput at [ncpus] relative to 1 CPU — the headline
    scaling number. *)

val to_json : result -> Bench_json.t
(** The body of [BENCH_smp.json], without envelope or machcheck. *)
