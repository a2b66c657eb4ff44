(* unused-export known-clean: every val is named by another unit, one
   of them only bare under [open]; [calibrate] is exempt. *)

type t

val create : unit -> t
val read : t -> int
val calibrate : t -> unit [@@machlint.allow "unused-export"]
