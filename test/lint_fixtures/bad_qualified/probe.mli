(* unused-export known-bad for qualified references: [Probe.port] is
   a finding even though another unit names [Pump.port] -- a reference
   whose qualifier is a scanned module counts for that module only. *)

type t

val create : unit -> t
val port : t -> int
