(* Tags and LRU stamps live in flat arrays, way [w] of set [s] at index
   [s * assoc + w].  The line size and the set count are powers of two,
   so locating a line is a shift and a mask, and a lookup scans one
   set's ways without allocating: this runs once per cache line touched
   by every simulated instruction fetch, load and store. *)
type t = {
  line_shift : int;
  set_mask : int;
  set_shift : int;
  assoc : int;
  tags : int array;  (* -1 = invalid *)
  stamps : int array;  (* LRU stamps parallel to [tags] *)
  mutable tick : int;
}

let log2_exact what n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Cache.create: %s %d is not a power of two" what n);
  let rec go k = if 1 lsl k = n then k else go (k + 1) in
  go 0

let create (g : Config.cache_geometry) =
  let sets = g.size / (g.line * g.assoc) in
  let line_shift = log2_exact "line size" g.line
  and set_shift = log2_exact "set count" sets in
  {
    line_shift;
    set_mask = sets - 1;
    set_shift;
    assoc = g.assoc;
    tags = Array.make (sets * g.assoc) (-1);
    stamps = Array.make (sets * g.assoc) 0;
    tick = 0;
  }

(* The index in [i, stop) holding [tag], or -1. *)
let rec find (tags : int array) (tag : int) i stop =
  if i >= stop then -1 else if tags.(i) = tag then i else find tags tag (i + 1) stop

(* The least recently used index in [i, stop), the lowest winning ties.
   Invalid ways keep their stamps, so after a flush the victim is still
   the way used longest ago. *)
let rec lru (stamps : int array) best i stop =
  if i >= stop then best
  else lru stamps (if stamps.(i) < stamps.(best) then i else best) (i + 1) stop

let access t addr =
  let line = addr lsr t.line_shift in
  let base = (line land t.set_mask) * t.assoc in
  let tag = line lsr t.set_shift in
  let stop = base + t.assoc in
  t.tick <- t.tick + 1;
  let way = find t.tags tag base stop in
  if way >= 0 then begin
    t.stamps.(way) <- t.tick;
    true
  end
  else begin
    let way = lru t.stamps base (base + 1) stop in
    t.tags.(way) <- tag;
    t.stamps.(way) <- t.tick;
    false
  end

let probe t addr =
  let line = addr lsr t.line_shift in
  let base = (line land t.set_mask) * t.assoc in
  find t.tags (line lsr t.set_shift) base (base + t.assoc) >= 0

let flush t = Array.fill t.tags 0 (Array.length t.tags) (-1)
let lines t = Array.length t.tags

let resident t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags
