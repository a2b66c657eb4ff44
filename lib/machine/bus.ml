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

   The directory is host-side bookkeeping (a hashtable over line
   addresses); it charges nothing on a 1-CPU machine and is never
   consulted there. *)

(* Capacity window: aggregate demand accounting quantum.  Big enough
   that one CPU's burst (a message copy is ~0.5 K bus cycles) does not
   oversubscribe a window on its own, small enough that saturation
   registers promptly. *)
let window = 8192.

type t = {
  ncpus : int;
  occupied : (int, float) Hashtbl.t;  (* window index -> bus cycles booked *)
  writers : (int, int) Hashtbl.t;  (* line address -> last-writing cpu *)
  mutable transactions : int;
}

let create ~ncpus =
  if ncpus < 1 then invalid_arg "Bus.create: need at least one CPU";
  {
    ncpus;
    occupied = Hashtbl.create (if ncpus > 1 then 1024 else 1);
    writers = Hashtbl.create (if ncpus > 1 then 4096 else 1);
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
  if t.ncpus = 1 then 0.
  else begin
    t.transactions <- t.transactions + 1;
    let w = int_of_float (now /. window) in
    let before =
      match Hashtbl.find_opt t.occupied w with Some b -> b | None -> 0.
    in
    let c = float_of_int bus_cycles in
    Hashtbl.replace t.occupied w (before +. c);
    let stall =
      Float.max 0. (before +. c -. window) -. Float.max 0. (before -. window)
    in
    stall
  end

(* Coherence directory.  [note_access] returns [true] when the access is
   a coherence miss: the line's last writer is a different CPU, so the
   local copy (if any) is stale and the data crosses the bus. *)
let note_access t ~cpu ~line ~write =
  if t.ncpus = 1 then false
  else
    let miss =
      match Hashtbl.find_opt t.writers line with
      | Some w -> w <> cpu
      | None -> false
    in
    (if write then Hashtbl.replace t.writers line cpu
     else if miss then
       (* read of a dirty remote line: the transfer leaves it shared
          clean, so the next reader pays nothing *)
       Hashtbl.remove t.writers line);
    miss

let reset t =
  Hashtbl.reset t.occupied;
  Hashtbl.reset t.writers;
  t.transactions <- 0
