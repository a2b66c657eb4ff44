(** The recovery-sweep experiment: exhaustive crash-point checking of
    the journalled file system.

    A scripted file workload runs against JFS once per {e crash point}:
    a seeded {!Mach.Fault} plan cuts disk power at write 1, write 2, ...
    write N (N learned from an un-faulted reference run).  After each
    cut the sweep plays a supervised restart — power restored, a cold
    block cache, a recovery mount that replays the journal — and checks
    that no acknowledged operation is lost and the volume passes the
    full fsck invariant scan.  Violations become Machcheck "crash"
    findings when a checker is installed, and appear in
    the point records either way.

    Two side series measure the journal's cost (cycles and disk writes
    per op against the same engine without a journal) and recovery
    latency (replay time versus journal fill). *)

type crash_point = {
  cp_write : int;  (** power cut at this disk write (1-based) *)
  cp_acked : int;  (** ops acknowledged before the cut *)
  cp_replayed_txns : int;
  cp_replayed_blocks : int;
  cp_discarded : int;
  cp_fsck_findings : int;
  cp_lost : int;  (** acked ops missing or wrong after recovery *)
  cp_torn : int;  (** invariant violations after recovery *)
  cp_recovery_cycles : int;
}

type overhead_point = {
  ov_ops : int;
  ov_plain_cycles_per_op : float;
  ov_jfs_cycles_per_op : float;
  ov_plain_disk_writes : int;
  ov_jfs_disk_writes : int;
  ov_journal_records : int;
}

type latency_point = {
  lt_ops : int;
  lt_journal_records : int;
  lt_replayed_txns : int;
  lt_replayed_blocks : int;
  lt_recovery_cycles : int;
}

type result = {
  r_seed : int;
  r_ops : int;
  r_total_writes : int;
  r_checkpoints : int;
      (** partial journal checkpoints the un-faulted run crossed: the
          crash points between them exercise the partial write-home *)
  r_points_checked : int;
  r_exhaustive : bool;
  r_lost_writes : int;
  r_torn_states : int;
  r_points : crash_point list;
  r_overhead : overhead_point list;
  r_latency : latency_point list;
}

val run :
  ?seed:int -> ?ops:int -> ?max_points:int -> ?series:int list -> unit ->
  result
(** [run ()] sweeps every crash point when the workload's write count
    fits [max_points] (default 64; [r_exhaustive] says so), else an
    even-stride sample.  [ops] (default 12) sizes the scripted
    workload; [series] (default [[4; 8; 16]]) sizes the overhead and
    latency side series. *)

val to_json : result -> Bench_json.t
(** The body of [BENCH_recovery.json], without envelope or machcheck. *)
