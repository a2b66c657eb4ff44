(** Shared provenance for the BENCH_*.json writers: git revision, seed
    and ISO-8601 timestamp, so the bench trajectory is comparable across
    commits.  All values are memoized per process — every writer in one
    run emits the same stamp, and re-running a workload with the checker
    toggled stays byte-identical. *)

val block : ?seed:int -> unit -> Bench_json.t
(** The [{ "git_rev": ..., "seed": ..., "timestamp": ... }] object for a
    ["run"] field.  [git_rev] is HEAD's commit hash, read from [.git]
    (searching upward from the working directory), or ["unknown"]
    outside a work tree (e.g. the test sandbox); [timestamp] is UTC,
    [YYYY-MM-DDThh:mm:ssZ], frozen at first use.  [seed] defaults to 0
    for unseeded workloads. *)

val json : ?seed:int -> unit -> string
(** {!block} printed on one line, for writers that build text. *)

val envelope :
  string -> ?seed:int -> (string * Bench_json.t) list -> Bench_json.t
(** The one BENCH document envelope: ["experiment"], ["schema_version"]
    and the {!block} under ["run"], followed by [body]'s fields.  Every
    BENCH_*.json writer builds its document through this; [bench ab]
    refuses a file whose schema_version differs from its partner's. *)
