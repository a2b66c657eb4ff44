type t = {
  config : Config.t;
  id : int;  (* processor index within the machine, 0 = boot CPU *)
  bus : Bus.t;  (* shared with every sibling CPU; inert when alone *)
  perf : Perf.t;
  acc : Perf.acc;  (* [perf]'s cycle accumulator *)
  icache : Cache.t;
  dcache : Cache.t;
  tlb : Tlb.t;
  mutable clock : float;
}

let create ?(id = 0) ?bus (c : Config.t) =
  let perf = Perf.create () in
  {
    config = c;
    id;
    bus = (match bus with Some b -> b | None -> Bus.create ~ncpus:1);
    perf;
    acc = Perf.acc perf;
    icache = Cache.create c.icache;
    dcache = Cache.create c.dcache;
    tlb = Tlb.create ~entries:c.tlb_entries ~page_size:c.page_size;
    clock = 0.;
  }

let config t = t.config
let id t = t.id
let bus t = t.bus
let perf t = t.perf

(* The clock accumulates in float so sub-cycle charges (the 0.5-cycle
   store penalty) are never lost; reads round to nearest rather than
   truncate, so repeated read-diff measurements carry no systematic
   downward drift. *)
let now t = int_of_float (Float.round t.clock)
let now_exact t = t.clock

(* Inlined, and the cycle counter is a flat float record, so a charge
   of [float_of_int n] boxes only the new clock.  The clock stays a
   boxed field: the scheduler reads [now_exact] across a module
   boundary, and a flat clock would box a float on every such read. *)
let[@inline] charge t cycles =
  t.acc.cycles <- t.acc.cycles +. cycles;
  t.clock <- t.clock +. cycles

let charge_bus t n =
  Perf.add_bus_cycles t.perf n

(* A bus transaction on an SMP machine may find the bus held by a
   sibling CPU; the stall shows up both in the cycle clock and in the
   dedicated counter.  Never called on a 1-CPU machine. *)
let charge_bus_smp t n =
  charge_bus t n;
  let stall = Bus.acquire t.bus ~now:t.clock ~bus_cycles:n in
  if stall > 0 then begin
    Perf.bus_stall t.perf stall;
    charge t (float_of_int stall)
  end

(* Walk the lines of [addr..addr+bytes), consulting [cache]; each miss
   costs a line fill.  TLB is consulted once per page touched.  This is
   the innermost hot path of the whole simulator.  Walking resident
   lines allocates nothing, a charge boxes one float (the new clock)
   and a bus stall is an int.  So on a warm 4-CPU machine a 64-byte
   load allocates 0 words, and a 256-byte fetch and a 64-byte store 2
   each: the "hot path allocation" test in test_machine.ml pins those
   figures.  The SMP additions (coherence directory, bus arbitration)
   are guarded so a 1-CPU machine runs the exact pre-SMP sequence. *)
let lines_and_pages t cache addr bytes ~is_icache =
  let c = t.config in
  let smp = Bus.ncpus t.bus > 1 in
  let line = if is_icache then c.icache.line else c.dcache.line in
  let last = addr + Int.max bytes 1 - 1 in
  (* line and page sizes are powers of two (Cache and Tlb check) *)
  let a = ref (addr land -line) in
  while !a <= last do
    (* Cache.access both probes and installs: after a coherence transfer
       the line lives in this cache too, so it runs unconditionally. *)
    let hit = Cache.access cache !a in
    if
      smp && not is_icache
      && Bus.note_access t.bus ~cpu:t.id ~line:!a ~write:false
    then begin
      (* another CPU wrote this line since we last held it: whatever the
         local tag said, the copy is stale.  One cache-to-cache transfer
         replaces the memory line fill. *)
      Perf.dcache_access t.perf ~hit:false;
      Perf.coherence_miss t.perf;
      charge t (float_of_int c.coherence_miss_cycles);
      charge_bus_smp t c.line_fill_bus_cycles
    end
    else begin
      if is_icache then Perf.icache_access t.perf ~hit
      else Perf.dcache_access t.perf ~hit;
      if not hit then begin
        charge t (float_of_int c.line_fill_cycles);
        if smp then charge_bus_smp t c.line_fill_bus_cycles
        else charge_bus t c.line_fill_bus_cycles
      end
    end;
    a := !a + line
  done;
  let p = ref (addr land -c.page_size) in
  while !p <= last do
    if not (Tlb.access t.tlb !p) then begin
      Perf.tlb_miss t.perf;
      charge t (float_of_int c.tlb_miss_cycles);
      if smp then charge_bus_smp t c.tlb_miss_bus_cycles
      else charge_bus t c.tlb_miss_bus_cycles
    end;
    p := !p + c.page_size
  done

(* The charge calls.  Each bills one kind of simulated work to this
   CPU's caches, TLB, counters and clock; a caller charges a stretch of
   software as the sequence of calls it makes. *)

let fetch t (region : Layout.region) ~offset ~bytes =
  if offset + bytes > region.Layout.size then
    invalid_arg
      (Printf.sprintf "Cpu.fetch: %d+%d exceeds region %S (%d bytes)" offset
         bytes region.Layout.name region.Layout.size);
  let c = t.config in
  let addr = region.Layout.base + offset in
  let instructions = Int.max 1 (bytes / c.bytes_per_instruction) in
  Perf.add_instructions t.perf instructions;
  charge t (float_of_int instructions *. c.base_cpi);
  lines_and_pages t t.icache addr bytes ~is_icache:true

let load t ~addr ~bytes = lines_and_pages t t.dcache addr bytes ~is_icache:false

let store t ~addr ~bytes =
  lines_and_pages t t.dcache addr bytes ~is_icache:false;
  (* write-through: every stored word is a bus write *)
  let c = t.config in
  let words = Int.max 1 ((bytes + 3) / 4) in
  if Bus.ncpus t.bus > 1 then begin
    (* take ownership of every written line in the coherence directory;
       sibling CPUs holding these lines will pay a transfer next touch *)
    let line = c.dcache.line and last = addr + Int.max bytes 1 - 1 in
    let a = ref (addr land -line) in
    while !a <= last do
      ignore (Bus.note_access t.bus ~cpu:t.id ~line:!a ~write:true : bool);
      a := !a + line
    done;
    charge_bus_smp t (words * c.write_bus_cycles)
  end
  else charge_bus t (words * c.write_bus_cycles);
  charge t (float_of_int words *. 0.5)

(* A remap that edits live mappings must invalidate stale translations
   before either side runs again.  Priced as one IPI-class operation
   (same order as an address-space switch) plus a short per-page
   [invlpg]; deliberately independent of the bytes remapped. *)
let tlb_shootdown t ~addr ~pages =
  let c = t.config in
  charge t (float_of_int c.address_space_switch_cycles);
  for p = 0 to pages - 1 do
    Tlb.invalidate t.tlb (addr + (p * c.page_size));
    charge t 2.
  done

(* The frame buffer's aperture is uncacheable: every stored word is a
   bus transaction, and the store costs one cycle per word to issue.  The
   address has no effect on the charge, since no cache or TLB sees it. *)
let uncached_write t ~addr:_ ~bytes =
  let c = t.config in
  let words = Int.max 1 ((bytes + 3) / 4) in
  charge_bus t (words * c.write_bus_cycles);
  charge t (float_of_int words)

(* A CR3 write: a fixed pipeline cost plus a flush of every
   translation, which the next touches pay back as page walks. *)
let switch_address_space t =
  Perf.address_space_switch t.perf;
  Tlb.flush t.tlb;
  charge t (float_of_int t.config.address_space_switch_cycles)

let stall t n = charge t (float_of_int n)

let advance_to t time =
  let time = float_of_int time in
  if time > t.clock then t.clock <- time
