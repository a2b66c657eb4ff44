(** A/B regression diff over two BENCH_*.json files.

    Compares the numeric leaves of two runs of the same experiment and
    judges each change by the metric's direction: throughput-,
    availability- and success-like metrics ([*_ok], [*_per_mcycle])
    regress when they fall, cost-like metrics (cycles, misses,
    stalls) regress when they rise.  Provenance (the ["run"] subtree)
    and host-clock fields are excluded, so only deterministic simulated
    metrics can gate a build. *)

type delta = {
  d_path : string;  (** dotted leaf path, arrays keyed by identity fields *)
  d_a : float;
  d_b : float;
  d_change : float;  (** (b - a) / a; infinite when a = 0 and b <> 0 *)
  d_direction : [ `Higher_better | `Lower_better | `Neutral ];
  d_regression : bool;  (** moved the wrong way by more than threshold *)
}

type verdict = {
  v_experiment : string;
  v_threshold : float;
  v_compared : int;  (** numeric leaves present in both files *)
  v_only_a : int;  (** leaves present in A but missing from B *)
  v_only_b : int;
  v_deltas : delta list;  (** changed leaves only, regressions first *)
  v_regressions : int;
}

val compare_json : a:string -> b:string -> threshold:float -> (verdict, string) result
(** [Error _] on malformed JSON or when the two documents disagree on
    ["experiment"] or ["schema_version"]. *)

val compare_files : a:string -> b:string -> threshold:float -> (verdict, string) result

val compare_dirs :
  a:string ->
  b:string ->
  threshold:float ->
  (string * (verdict, string) result) list
(** Every [BENCH_*.json] in directory [a] against the same name in [b],
    in name order: one verdict per file, or [Error _] for a file missing
    from either side or failing {!compare_files}.  A directory that
    cannot be read, or two with no BENCH file between them, give a
    single [Error _]. *)

val pp_verdict : Format.formatter -> verdict -> unit
