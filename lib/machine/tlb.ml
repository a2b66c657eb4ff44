(* A page is found through [memo], a direct-mapped array from the low
   bits of a page number to the entry that last held a page with those
   bits.  The entry it names is checked before it is trusted; when the
   check fails, [resident_in] says whether any valid entry maps to that
   memo slot at all, so the entries are scanned only when one does.

   Replacement is exact LRU with the lowest index winning ties (only
   never-used entries tie).  The entries are kept on a list in that
   order, least recently used at [lru], and every access moves its
   entry to [mru], so the victim is the list head.  Invalidated entries
   keep their place on the list: one that was used recently is not
   refilled before older valid entries are evicted. *)
type t = {
  page_shift : int;
  pages : int array;  (* -1 = invalid *)
  memo : int array;
  resident_in : int array;  (* per memo slot: valid entries mapping to it *)
  older : int array;  (* LRU list, -1 at either end *)
  newer : int array;
  mutable lru : int;
  mutable mru : int;
}

let memo_size = 256

let create ~entries ~page_size =
  assert (entries > 0);
  if page_size <= 0 || page_size land (page_size - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Tlb.create: page size %d is not a power of two"
         page_size);
  let rec log2 k = if 1 lsl k = page_size then k else log2 (k + 1) in
  {
    page_shift = log2 0;
    pages = Array.make entries (-1);
    memo = Array.make memo_size 0;
    resident_in = Array.make memo_size 0;
    older = Array.init entries (fun i -> i - 1);
    newer = Array.init entries (fun i -> if i = entries - 1 then -1 else i + 1);
    lru = 0;
    mru = entries - 1;
  }

let rec find (pages : int array) page i =
  if i >= Array.length pages then -1
  else if pages.(i) = page then i
  else find pages page (i + 1)

(* Move entry [i] to the most recently used end of the list. *)
let touch t i =
  if i <> t.mru then begin
    let o = t.older.(i) and n = t.newer.(i) in
    if o >= 0 then t.newer.(o) <- n else t.lru <- n;
    t.older.(n) <- o;
    t.older.(i) <- t.mru;
    t.newer.(i) <- -1;
    t.newer.(t.mru) <- i;
    t.mru <- i
  end

(* The entry holding [page], whose memo slot is [slot], or -1. *)
let lookup t page slot =
  let i = t.memo.(slot) in
  if t.pages.(i) = page then i
  else if t.resident_in.(slot) = 0 then -1
  else find t.pages page 0

let access t vaddr =
  let page = vaddr lsr t.page_shift in
  let slot = page land (memo_size - 1) in
  let i = lookup t page slot in
  if i >= 0 then begin
    t.memo.(slot) <- i;
    touch t i;
    true
  end
  else begin
    let v = t.lru in
    let old = t.pages.(v) in
    if old >= 0 then begin
      let s = old land (memo_size - 1) in
      t.resident_in.(s) <- t.resident_in.(s) - 1
    end;
    t.pages.(v) <- page;
    t.resident_in.(slot) <- t.resident_in.(slot) + 1;
    t.memo.(slot) <- v;
    touch t v;
    false
  end

let invalidate t vaddr =
  let page = vaddr lsr t.page_shift in
  let slot = page land (memo_size - 1) in
  let i = lookup t page slot in
  if i >= 0 then begin
    t.pages.(i) <- -1;
    t.resident_in.(slot) <- t.resident_in.(slot) - 1
  end

let flush t =
  Array.fill t.pages 0 (Array.length t.pages) (-1);
  Array.fill t.resident_in 0 memo_size 0

let entries t = Array.length t.pages

let resident t =
  Array.fold_left (fun acc p -> if p >= 0 then acc + 1 else acc) 0 t.pages
