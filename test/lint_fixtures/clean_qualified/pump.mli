val port : unit -> int
