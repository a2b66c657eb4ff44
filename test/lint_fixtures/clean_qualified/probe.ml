type t = { id : int }

let create () = { id = 7 }
let port t = t.id
