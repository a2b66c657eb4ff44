module P = Probe

let p = Probe.create ()
let n = P.port p
let q = Pump.port ()
