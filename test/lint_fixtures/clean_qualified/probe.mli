(* unused-export known-clean for qualified references: [Probe.port] is
   named only through [module P = Probe], an alias the scan does not
   resolve, so the reference falls back to its last component and
   counts; [Pump.port] is named by its own qualifier. *)

type t

val create : unit -> t
val port : t -> int
