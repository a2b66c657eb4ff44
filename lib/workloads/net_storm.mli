(** The net-storm experiment: a C1M-flavoured traffic generator against
    the netisr-sharded netserver, swept over CPU counts.

    Five phases, each booting a fresh machine per (phase, ncpus) point:
    [steady] (uniform datagram firehose from tens of thousands of
    simulated clients — the packets/sec scaling anchor), [skew] (the
    same engine under Zipf heavy-hitter endpoint selection, measuring
    per-shard occupancy fairness and p50/p99 delivery latency), [churn]
    (full TCP open/echo/close sessions — connections/sec), and two
    adversarial fault phases at the largest swept CPU count: [synflood]
    (SYN storm against a bounded backlog while UDP victims complete
    acknowledged operations over a lossy {!Mach.Fault} wire) and
    [slowloris] (waves of half-open connections vs the periodic embryo
    reaper, with TCP victims completing through the same listener).

    All randomness is a seeded LCG: results are deterministic. *)

type point = {
  np_phase : string;  (* steady | skew | churn | synflood | slowloris *)
  np_ncpus : int;
  np_clients : int;  (* distinct simulated client source ports *)
  np_ops : int;  (* packets delivered, or sessions/ops completed *)
  np_wall_cycles : int;
  np_throughput : float;  (* ops per million cycles of wall clock *)
  np_speedup : float;  (* vs the 1-CPU point of the same phase *)
  np_conns : int;  (* TCP connections opened *)
  np_p50_cycles : int;  (* busiest shard's rx-ring-entry -> delivery *)
  np_p99_cycles : int;  (* latency percentiles, home-CPU cycles *)
  np_fairness : float;  (* per-shard occupancy max/mean (1.0 = perfect) *)
  np_syn_drops : int;  (* SYNs refused by backlog backpressure *)
  np_wire_drops : int;  (* packets lost to injected faults *)
  np_reaped : int;  (* half-open embryos closed by the reaper *)
  np_half_open_peak : int;  (* worst half-open population observed *)
  np_retries : int;  (* victim operation retries *)
  np_lost_acked : int;  (* acked ops that never completed: must be 0 *)
  np_xshard_msgs : int;  (* registry messages + cross-shard accepts *)
}

type result = {
  nr_cpus : int list;
  nr_endpoints : int;
  nr_clients : int;
  nr_packets : int;
  nr_bytes : int;
  nr_sessions : int;
  nr_flood_syns : int;
  nr_points : point list;
}

val run :
  ?cpus:int list ->
  ?endpoints:int ->
  ?clients:int ->
  ?packets:int ->
  ?bytes:int ->
  ?sessions:int ->
  ?flood_syns:int ->
  ?victim_ops:int ->
  unit ->
  result
(** Defaults: cpus [1;2;4;8], 32 endpoints, 20_000 clients, 12_000
    packets per firehose point, 512-byte payloads, 24 sessions per CPU,
    200 flood SYNs, 12 victim ops per CPU. *)

val steady_speedup : result -> ncpus:int -> float
(** Steady-phase packets/sec at [ncpus] relative to 1 CPU — the
    headline acceptance number (>= 2.5 at 4 CPUs). *)

val skew_tail_ratio : result -> float
(** Worst p99/p50 delivery-latency ratio over the skewed multi-CPU
    points (acceptance: <= 3). *)

val total_lost : result -> int
(** Acknowledged operations lost across every phase (acceptance: 0). *)

val to_json : result -> Bench_json.t
(** The body of [BENCH_net.json], without envelope or machcheck. *)
