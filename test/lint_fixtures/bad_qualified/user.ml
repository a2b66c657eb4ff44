let p = Probe.create ()
let q = Pump.port ()
