(** The fault-storm experiment: availability under live fault injection.

    Five scenarios measure what the reincarnation service buys when
    components die {e under load}:

    - {b shard-golden}: an open-loop deterministic UDP storm while one
      netserver protocol shard is killed and reincarnated mid-run.
      Injection is scheduled on the event timeline before any packet
      flies, so the untouched shards must deliver {e exactly} the packet
      counts of a no-fault control run, and the victim's shortfall must
      equal the counted in-flight reboot drops.
    - {b shard-storm}: closed-loop acked echo operations from one victim
      client per CPU while the shard homing a victim socket is killed and
      reincarnated twice; acked ops must never be lost (clients re-drive
      dropped traffic through retry budgets), and the kill→repair windows
      give availability-under-fault and shard MTTR.
    - {b fs-crash}: the E1-style edit workload against a
      health-supervised file server under random crash injection plus
      disk write-reordering, swept over 0, 2000, 10000 and 30000 ppm; MTTR
      is the supervisor's death-to-rebind.
    - {b fs-wedge}: scripted [Wedge_server] faults stick the serve loop
      mid-request with the port still alive — only the heartbeat
      watchdog can see it; detection, kill and restart must happen while
      clients keep completing.
    - {b crash-loop}: a server whose every incarnation dies at once
      burns its restart budget, is demoted to degraded mode, and clients
      resolving its name must get [Kern_unavailable] back fast (the
      fast-fail latency is the measurement) instead of hanging.

    Availability is a success ratio by {e operation finish time}: ops
    completing inside a fault window (kill→repair for shards,
    restart-closure span for the file server) versus outside. *)

type point = {
  fp_scenario : string;
  fp_crash_ppm : int option;  (** fs-crash's injected crash rate *)
  fp_injected : (string * int) list;
      (** fs-crash: crashes and reorders the plan injected, by JSON key *)
  fp_ops : int;  (** operations attempted (or packets injected) *)
  fp_completed : int;
  fp_lost : int;  (** attempted ops that never completed: must be 0 *)
  fp_in_ops : int;  (** ops finishing inside a fault window *)
  fp_in_ok : int;
  fp_out_ops : int;
  fp_out_ok : int;
  fp_avail_in : float;  (** success ratio inside fault windows *)
  fp_avail_out : float;
  fp_rate_in : float;  (** successful ops per Mcycle inside windows *)
  fp_rate_out : float;
  fp_windows : int;  (** fault windows injected *)
  fp_mttr : float;  (** mean time to repair, cycles (0 when n/a) *)
  fp_restarts : int;
  fp_wedge_kills : int;
  fp_degraded : int;
  fp_reboot_drops : int;  (** in-flight packets lost to shard reboots *)
  fp_reincarnations : int;
  fp_golden_ok : bool;  (** untouched shards identical to the control run *)
  fp_fastfail_cycles : int;  (** degraded-mode error latency (-1 = n/a) *)
  fp_fsck_findings : int;
      (** file-server scenarios: invariant-scan findings on the final
          volume, read through the server's live cache; must be 0 *)
}

type result = {
  fr_seed : int;
  fr_points : point list;
}

val fs_crash :
  seed:int -> clients:int -> sessions:int -> crash_ppm:int -> unit -> point
(** One fs-crash run: [clients] editors of [sessions] sessions each
    against a two-thread HPFS file server, with server crashes and disk
    write reorders both injected at [crash_ppm]. *)

val run :
  ?seed:int -> ?endpoints:int -> ?rounds:int -> ?victim_ops:int ->
  ?clients:int -> ?sessions:int -> unit -> result
(** Run all five scenarios, then fs-crash at 0, 2000 and 10000 ppm; the points
    list the sweep in rate order.  [endpoints]/[rounds] size the open-loop
    golden storm, [victim_ops] the closed-loop echo run, and
    [clients]/[sessions] the file-server scenarios.  Every boot and every
    supervised restart attaches to the installed {!Check}, if any. *)

(** {1 Acceptance probes (the bench gates)} *)


val total_lost : result -> int
(** Acked/attempted operations lost across all scenarios — the
    zero-acked-loss gate. *)

val total_fsck_findings : result -> int
(** Invariant-scan findings summed over the file-server scenarios. *)

val min_availability : result -> float
(** Worst success ratio over every scenario's in-window and out-of-window
    populations (1.0 when a population is empty). *)

val golden_ok : result -> bool
(** All golden asserts held: untouched shards byte-identical to the
    control run, victim shortfall exactly the counted drops, and the
    fault run actually dropped something. *)

val degraded_fastfail : result -> int
(** The crash-loop scenario's fast-fail latency in cycles, or -1 if the
    server never demoted or the client never saw [Kern_unavailable]. *)

val to_json : result -> Bench_json.t
(** The body of [BENCH_storm.json], without envelope or machcheck. *)
