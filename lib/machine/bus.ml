(* The shared memory bus.  One instance is shared by every CPU of a
   machine; with a single CPU it is completely inert (every entry point
   returns immediately), so the uniprocessor cost model is bit-for-bit
   what it was before SMP existed.

   Two effects are modelled, both deliberately simple and deterministic:

   - {b occupancy}: the bus moves a bounded number of bus cycles per
     unit of time.  Demand is accounted into fixed windows of the cycle
     clock; while a window's aggregate demand stays under its capacity
     the write buffers and the arbiter hide everything, and once a
     window oversubscribes, each further transaction stalls for the
     capacity it could not get.  Window accounting is insensitive to
     the order CPUs replay their time slices in (the conservative
     scheduler interleaves whole slices, so a lagging CPU may issue a
     transaction with an earlier clock than one already booked — an
     absolute busy-until timeline would misread that skew as a stall).

   - {b coherence}: a write-invalidate directory of last writers, one
     entry per cache line.  A CPU touching a line that another CPU wrote
     since it last held it pays a cache-to-cache transfer (the snoop
     hit); a read leaves the line shared-clean, a write takes ownership.

   Both are host-side bookkeeping in int-keyed open-addressing tables
   (the occupancy windows and the directory over line addresses).  A
   lookup, or an update of a key already present, allocates nothing,
   and a read of a line no CPU wrote inserts nothing.  Neither table is
   consulted on a 1-CPU machine. *)

(* Capacity window: aggregate demand accounting quantum.  Big enough
   that one CPU's burst (a message copy is ~0.5 K bus cycles) does not
   oversubscribe a window on its own, small enough that saturation
   registers promptly.  Demand is a sum of whole bus cycles, so it is
   booked as an int and the stall arithmetic is exact. *)
let window = 8192

(* Linear probing over non-negative int keys.  Slot [i] is the pair
   [cells.(2i)] (the key, -1 when empty) and [cells.(2i+1)] (its value),
   so a hit reads one host cache line.  The slot count is a power of two
   and at most three quarters of the slots are full (at one half,
   jfs-churn's heap grew by a tenth with no measurable gain in speed).
   A removal shifts the rest of its run back, so no tombstones build
   up. *)
module Itbl = struct
  type t = { mutable cells : int array; mutable count : int }

  let make slots = Array.init (2 * slots) (fun j -> if j land 1 = 0 then -1 else 0)
  let create slots = { cells = make slots; count = 0 }

  let reset t slots =
    t.cells <- make slots;
    t.count <- 0

  let mask cells = (Array.length cells / 2) - 1
  let home cells k = ((k * 0x1E3779B97F4A7C15) lsr 32) land mask cells

  (* the slot holding [k], or the empty slot that ends its run *)
  let rec slot (cells : int array) k i =
    let key = cells.(2 * i) in
    if key = k || key = -1 then i else slot cells k ((i + 1) land mask cells)

  let find t k ~absent =
    let i = slot t.cells k (home t.cells k) in
    if t.cells.(2 * i) = k then t.cells.((2 * i) + 1) else absent

  let rec replace t k v =
    let cells = t.cells in
    let i = slot cells k (home cells k) in
    if cells.(2 * i) = k then cells.((2 * i) + 1) <- v
    else if 8 * (t.count + 1) > 3 * Array.length cells then begin
      t.cells <- make (Array.length cells);
      t.count <- 0;
      for j = 0 to mask cells do
        if cells.(2 * j) >= 0 then replace t cells.(2 * j) cells.((2 * j) + 1)
      done;
      replace t k v
    end
    else begin
      cells.(2 * i) <- k;
      cells.((2 * i) + 1) <- v;
      t.count <- t.count + 1
    end

  (* Fill the hole at slot [gap] with the next entry of the run at or
     after slot [j] whose home does not lie cyclically in (gap, j]. *)
  let rec close (cells : int array) gap j =
    let key = cells.(2 * j) and m = mask cells in
    if key = -1 then cells.(2 * gap) <- -1
    else if (j - home cells key) land m >= (j - gap) land m then begin
      cells.(2 * gap) <- key;
      cells.((2 * gap) + 1) <- cells.((2 * j) + 1);
      close cells j ((j + 1) land m)
    end
    else close cells gap ((j + 1) land m)

  let remove t k =
    let i = slot t.cells k (home t.cells k) in
    if t.cells.(2 * i) = k then begin
      t.count <- t.count - 1;
      close t.cells i ((i + 1) land mask t.cells)
    end
end

type t = {
  ncpus : int;
  occupied : Itbl.t;  (* window index -> bus cycles booked *)
  writers : Itbl.t;  (* line address -> last-writing cpu *)
  mutable transactions : int;
}

let occupied_size ncpus = if ncpus > 1 then 1024 else 1
let writers_size ncpus = if ncpus > 1 then 4096 else 1

let create ~ncpus =
  if ncpus < 1 then invalid_arg "Bus.create: need at least one CPU";
  {
    ncpus;
    occupied = Itbl.create (occupied_size ncpus);
    writers = Itbl.create (writers_size ncpus);
    transactions = 0;
  }

let ncpus t = t.ncpus
let transactions t = t.transactions

(* Book [bus_cycles] of demand into the window holding [now] (the
   requesting CPU's clock); returns the stall the CPU must absorb.
   Demand under the window's capacity is free; the overflow a
   transaction pushes past capacity comes back as its stall, so total
   stall in a window telescopes to exactly (demand - capacity).
   Uniprocessor machines never stall and never book demand. *)
let acquire t ~now ~bus_cycles =
  if t.ncpus = 1 then 0
  else begin
    t.transactions <- t.transactions + 1;
    let w = int_of_float (now /. float_of_int window) in
    let before = Itbl.find t.occupied w ~absent:0 in
    Itbl.replace t.occupied w (before + bus_cycles);
    Int.max 0 (before + bus_cycles - window) - Int.max 0 (before - window)
  end

(* Coherence directory.  [note_access] returns [true] when the access is
   a coherence miss: the line's last writer is a different CPU, so the
   local copy (if any) is stale and the data crosses the bus. *)
let note_access t ~cpu ~line ~write =
  if t.ncpus = 1 then false
  else
    let w = Itbl.find t.writers line ~absent:(-1) in
    let miss = w >= 0 && w <> cpu in
    (if write then Itbl.replace t.writers line cpu
     else if miss then
       (* read of a dirty remote line: the transfer leaves it shared
          clean, so the next reader pays nothing *)
       Itbl.remove t.writers line);
    miss

let reset t =
  Itbl.reset t.occupied (occupied_size t.ncpus);
  Itbl.reset t.writers (writers_size t.ncpus);
  t.transactions <- 0
