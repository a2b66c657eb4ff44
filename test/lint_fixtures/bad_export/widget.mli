(* unused-export known-bad: [spin] is named by no other unit, [reset]
   only by widget.ml itself -- both are findings.  [dump] is exempt. *)

type t

val create : unit -> t
val spin : t -> unit
val reset : t -> unit
val dump : t -> string [@@machlint.allow]
