type t = { mutable turns : int }

let reset t = t.turns <- 0

let create () =
  let t = { turns = 1 } in
  reset t;
  t

let spin t = t.turns <- t.turns + 1
let dump t = string_of_int t.turns
