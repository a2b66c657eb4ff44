(* Known-clean twin: the same computations in their monomorphic forms,
   a local open of Int, and a [compare] this file binds itself. *)

let instructions ~bytes ~per = Int.max 1 (bytes / per)
let chunk ~bytes ~off = Int.(min 32 (bytes - off))
let sorted starts = List.sort Int.compare starts
let stall ~now ~limit = Float.max 0. (limit -. now)

let compare (a : int * int) (b : int * int) =
  match Int.compare (fst a) (fst b) with 0 -> Int.compare (snd a) (snd b) | c -> c

let by_extent extents = List.sort compare extents
