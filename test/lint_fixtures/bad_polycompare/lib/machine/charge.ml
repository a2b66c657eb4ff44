(* Known-bad: Stdlib's polymorphic comparisons on the charge path, each
   a call into the runtime's generic compare. *)

let instructions ~bytes ~per = max 1 (bytes / per)
let chunk ~bytes ~off = min 32 (bytes - off)
let sorted starts = List.sort compare starts
let last ~addr ~bytes = addr + Stdlib.max bytes 1 - 1
