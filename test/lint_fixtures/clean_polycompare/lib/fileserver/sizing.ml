(* Outside lib/machine and lib/mach the rule does not apply. *)

let blocks ~bytes ~block = max 1 ((bytes + block - 1) / block)
