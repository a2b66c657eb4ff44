let g = Gauge.create ()

let level () =
  let open Gauge in
  read g
