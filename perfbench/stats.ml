(* Exact latency distributions and percentiles that cannot pass
   vacuously: every percentile carries its sample count, and reads as
   null when fewer than [min_beyond] samples lie beyond it. *)

type samples = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 1024 0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let min_beyond = 10

type pct = { value : int option; samples : int; beyond : int }

(* Nearest-rank percentile over the exact samples. *)
let percentile s q =
  if s.n = 0 then { value = None; samples = 0; beyond = 0 }
  else begin
    let a = Array.sub s.a 0 s.n in
    Array.sort compare a;
    let rank = max 1 (min s.n (int_of_float (Float.ceil (q *. float_of_int s.n)))) in
    let beyond = s.n - rank in
    {
      value = (if beyond >= min_beyond then Some a.(rank - 1) else None);
      samples = s.n;
      beyond;
    }
  end

(* Failed over attempted; null when nothing was attempted. *)
let error_rate ~attempted ~failed =
  if attempted = 0 then None
  else Some (float_of_int failed /. float_of_int attempted)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- JSON fragments ------------------------------------------------------- *)

let jfloat x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let jopt f = function Some x -> f x | None -> "null"
let jint = string_of_int

let jpct p =
  Printf.sprintf "{ \"value\": %s, \"samples\": %d, \"beyond\": %d }"
    (jopt jint p.value) p.samples p.beyond

let jobj fields =
  "{ "
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ " }"
