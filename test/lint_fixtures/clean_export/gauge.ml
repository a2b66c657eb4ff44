type t = { mutable level : int }

let create () = { level = 0 }
let read t = t.level
let calibrate t = t.level <- 0
