(** The experiment table: every table and figure of the paper (E1-E9)
    and the stress workloads, each runnable at two scales.

    An experiment returns its result as JSON without the provenance
    envelope, its named acceptance gates, and the Machcheck report of
    the run.  Every run has the checker on unless [~checks:false] is
    passed, and the checker never moves a simulated number, so a run
    without it gives the same JSON minus the ["machcheck"] block. *)

type scale =
  | Smoke  (** throwaway iteration counts: the [dune runtest] pass *)
  | Full  (** the sizes the paper's numbers and the root BENCH files use *)

type outcome = {
  json : Bench_json.t;  (** the result, without envelope or machcheck *)
  gates : (string * bool) list;  (** name (with the measured value), passed *)
  check : Check.report option;
}

type t = {
  name : string;
  file : string option;  (** the BENCH_*.json it writes, if any *)
  run : ?checks:bool -> scale -> outcome;
}

val all : t list
(** In the order a whole-table run executes them. *)

val find : string -> t option

val document : t -> outcome -> Bench_json.t
(** The BENCH file: ["experiment"], ["schema_version"] and the ["run"]
    provenance block, the result's fields, then ["machcheck"]. *)

val check_document : (string * Check.report) list -> Bench_json.t
(** [BENCH_check.json]: the reports of a whole-table run by experiment. *)

val failures : outcome -> string list
(** Failed gates, plus the machcheck finding count when it is not zero. *)
