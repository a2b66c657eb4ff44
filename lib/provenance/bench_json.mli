(** The JSON value of every BENCH_*.json file: built by the experiments,
    printed by the bench driver, read back by [bench ab] and the tests
    (the repo has no JSON dependency). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t

val fixed : int -> float -> t
(** [fixed d x] is [x] rounded to [d] decimals, exactly as
    [Printf.sprintf "%.*f" d x] rounds it. *)

val parse : string -> (t, string) Stdlib.result
val member : string -> t -> t option

val to_string : t -> string
(** Indented two spaces, newline-terminated; a container holding only
    scalars prints on one line.  Numbers print in the fewest digits that
    read back as the same float, integers without a fraction. *)
