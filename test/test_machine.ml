(* Unit tests for the simulated-hardware substrate. *)

open Machine

(* The cache, TLB and bus models as they were before their bookkeeping
   moved to flat arrays and open-addressing tables: nested arrays, a
   scan of every TLB entry per lookup, polymorphic hashtables with float
   windows.  They are the oracle the differential test holds the models
   to, return value by return value. *)
module Ref_cache = struct
  type t = {
    line : int;
    sets : int;
    assoc : int;
    tags : int array array;
    stamps : int array array;
    mutable tick : int;
  }

  let create (g : Config.cache_geometry) =
    let sets = g.size / (g.line * g.assoc) in
    {
      line = g.line;
      sets;
      assoc = g.assoc;
      tags = Array.init sets (fun _ -> Array.make g.assoc (-1));
      stamps = Array.init sets (fun _ -> Array.make g.assoc 0);
      tick = 0;
    }

  let locate t addr =
    let line_addr = addr / t.line in
    (line_addr mod t.sets, line_addr / t.sets)

  let find_way tags tag =
    let rec loop i =
      if i >= Array.length tags then None
      else if tags.(i) = tag then Some i
      else loop (i + 1)
    in
    loop 0

  let lru_way t set =
    let stamps = t.stamps.(set) in
    let best = ref 0 in
    for i = 1 to t.assoc - 1 do
      if stamps.(i) < stamps.(!best) then best := i
    done;
    !best

  let access t addr =
    let set, tag = locate t addr in
    t.tick <- t.tick + 1;
    match find_way t.tags.(set) tag with
    | Some way ->
        t.stamps.(set).(way) <- t.tick;
        true
    | None ->
        let way = lru_way t set in
        t.tags.(set).(way) <- tag;
        t.stamps.(set).(way) <- t.tick;
        false

  let probe t addr =
    let set, tag = locate t addr in
    Option.is_some (find_way t.tags.(set) tag)

  let flush t =
    Array.iter (fun ways -> Array.fill ways 0 (Array.length ways) (-1)) t.tags

  let resident t =
    Array.fold_left
      (fun acc ways ->
        Array.fold_left (fun a tag -> if tag >= 0 then a + 1 else a) acc ways)
      0 t.tags
end

module Ref_tlb = struct
  type t = {
    page_size : int;
    pages : int array;
    stamps : int array;
    mutable tick : int;
  }

  let create ~entries ~page_size =
    {
      page_size;
      pages = Array.make entries (-1);
      stamps = Array.make entries 0;
      tick = 0;
    }

  let access t vaddr =
    let page = vaddr / t.page_size in
    t.tick <- t.tick + 1;
    let n = Array.length t.pages in
    let rec find i =
      if i >= n then None else if t.pages.(i) = page then Some i else find (i + 1)
    in
    match find 0 with
    | Some i ->
        t.stamps.(i) <- t.tick;
        true
    | None ->
        let victim = ref 0 in
        for i = 1 to n - 1 do
          if t.stamps.(i) < t.stamps.(!victim) then victim := i
        done;
        t.pages.(!victim) <- page;
        t.stamps.(!victim) <- t.tick;
        false

  let invalidate t vaddr =
    let page = vaddr / t.page_size in
    Array.iteri (fun i p -> if p = page then t.pages.(i) <- -1) t.pages

  let flush t = Array.fill t.pages 0 (Array.length t.pages) (-1)

  let resident t =
    Array.fold_left (fun acc p -> if p >= 0 then acc + 1 else acc) 0 t.pages
end

module Ref_bus = struct
  let window = 8192.

  type t = {
    ncpus : int;
    occupied : (int, float) Hashtbl.t;
    writers : (int, int) Hashtbl.t;
    mutable transactions : int;
  }

  let create ~ncpus =
    {
      ncpus;
      occupied = Hashtbl.create 1024;
      writers = Hashtbl.create 4096;
      transactions = 0;
    }

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
      Float.max 0. (before +. c -. window) -. Float.max 0. (before -. window)
    end

  let note_access t ~cpu ~line ~write =
    if t.ncpus = 1 then false
    else
      let miss =
        match Hashtbl.find_opt t.writers line with
        | Some w -> w <> cpu
        | None -> false
      in
      (if write then Hashtbl.replace t.writers line cpu
       else if miss then Hashtbl.remove t.writers line);
      miss
end

let test_cache_hit_miss () =
  let c = Cache.create { Config.size = 1024; line = 32; assoc = 2 } in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0x100);
  Alcotest.(check bool) "second access hits" true (Cache.access c 0x100);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x110);
  Alcotest.(check bool) "different line misses" false (Cache.access c 0x200)

let test_cache_conflict_lru () =
  (* 1 KiB, 32-byte lines, 2-way: 16 sets, set repeats every 512 bytes *)
  let c = Cache.create { Config.size = 1024; line = 32; assoc = 2 } in
  ignore (Cache.access c 0x000 : bool);
  ignore (Cache.access c 0x200 : bool);
  Alcotest.(check bool) "two ways hold both" true (Cache.access c 0x000);
  ignore (Cache.access c 0x400 : bool);  (* evicts LRU = 0x200 *)
  Alcotest.(check bool) "survivor stays" true (Cache.access c 0x000);
  Alcotest.(check bool) "victim evicted" false (Cache.access c 0x200)

let test_cache_flush () =
  let c = Cache.create { Config.size = 1024; line = 32; assoc = 2 } in
  ignore (Cache.access c 0x40 : bool);
  Alcotest.(check int) "one line resident" 1 (Cache.resident c);
  Cache.flush c;
  Alcotest.(check int) "flushed" 0 (Cache.resident c);
  Alcotest.(check bool) "miss after flush" false (Cache.access c 0x40)

let test_tlb () =
  let t = Tlb.create ~entries:2 ~page_size:4096 in
  Alcotest.(check bool) "cold miss" false (Tlb.access t 0x1000);
  Alcotest.(check bool) "hit" true (Tlb.access t 0x1fff);
  ignore (Tlb.access t 0x2000 : bool);
  ignore (Tlb.access t 0x3000 : bool);  (* evicts LRU page 1 *)
  Alcotest.(check bool) "LRU evicted" false (Tlb.access t 0x1000);
  Tlb.flush t;
  Alcotest.(check int) "flush empties" 0 (Tlb.resident t)

let test_layout () =
  let l = Layout.create Config.pentium_133 in
  let a = Layout.alloc l ~name:"a" ~kind:Layout.Code ~size:100 in
  let b = Layout.alloc l ~name:"b" ~kind:Layout.Data ~size:5000 in
  Alcotest.(check bool) "page aligned" true (a.Layout.base mod 4096 = 0);
  Alcotest.(check int) "size rounded" 4096 a.Layout.size;
  Alcotest.(check bool) "no overlap" true (b.Layout.base >= Layout.end_of a);
  Alcotest.(check bool) "find works" true (Layout.find l "b" = Some b);
  let d = Layout.alloc l ~name:"dev" ~kind:Layout.Device ~size:4096 in
  Alcotest.(check bool) "device above memory" true
    (d.Layout.base >= Config.pentium_133.Config.memory_bytes)

let test_layout_exhaustion () =
  let small = Config.with_memory Config.pentium_133 ~bytes:(64 * 1024) in
  let l = Layout.create small in
  Alcotest.check_raises "out of memory" (Failure "exhausted")
    (fun () ->
      try ignore (Layout.alloc l ~name:"big" ~kind:Layout.Data ~size:(1024 * 1024) : Layout.region)
      with Failure _ -> raise (Failure "exhausted"))

let test_event_queue () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.schedule q ~at:200 (fun () -> log := 200 :: !log);
  Event_queue.schedule q ~at:100 (fun () -> log := 100 :: !log);
  Event_queue.schedule q ~at:100 (fun () -> log := 101 :: !log);
  Alcotest.(check (option int)) "next" (Some 100) (Event_queue.next_time q);
  let fired = Event_queue.run_due q ~now:150 in
  Alcotest.(check int) "two fired" 2 fired;
  Alcotest.(check (list int)) "FIFO within a time" [ 101; 100 ] !log;
  ignore (Event_queue.run_due q ~now:500 : int);
  Alcotest.(check (list int)) "all fired" [ 200; 101; 100 ] !log

(* Exact charge pins.  [check_pin what cpu f (counters, clock)] runs [f]
   and checks the counter deltas it leaves on [cpu] — cycles, bus
   cycles, instructions, I-cache, D-cache and TLB misses, address-space
   switches, in that order — and the CPU's unrounded clock afterwards.
   Every figure is the cost model's exact output, so any change to how a
   charge is billed shows up here. *)
let check_pin what cpu f (counters, clock) =
  let before = Perf.snapshot (Cpu.perf cpu) in
  f ();
  let d = Perf.diff (Perf.snapshot (Cpu.perf cpu)) before in
  Alcotest.(check (list int))
    (what ^ ": cycles, bus, instrs, I$/D$/TLB misses, AS switches")
    counters
    [
      d.Perf.cycles;
      d.Perf.bus_cycles;
      d.Perf.instructions;
      d.Perf.icache_misses;
      d.Perf.dcache_misses;
      d.Perf.tlb_misses;
      d.Perf.address_space_switches;
    ];
  Alcotest.(check (float 0.)) (what ^ ": clock") clock (Cpu.now_exact cpu)

let smp4 () = create (Config.with_ncpus Config.ppc604_133 ~n:4)

let test_cpu_charges () =
  let m = create Config.pentium_133 in
  let r = Layout.alloc m.layout ~name:"code" ~kind:Layout.Code ~size:4096 in
  (* cold: 100 instructions at CPI 2, 13 line fills and one page walk *)
  check_pin "cold fetch" m.cpu
    (fun () -> Cpu.fetch m.cpu r ~offset:0 ~bytes:400)
    ([ 568; 82; 100; 13; 0; 1; 0 ], 568.);
  (* steady state: the same fetch again is all hits *)
  check_pin "warm fetch" m.cpu
    (fun () -> Cpu.fetch m.cpu r ~offset:0 ~bytes:400)
    ([ 200; 0; 100; 0; 0; 0; 0 ], 768.)

let test_write_through_bus () =
  let m = create Config.pentium_133 in
  (* 16 words * write_bus_cycles(4) plus the line fills *)
  check_pin "store 64 B" m.cpu
    (fun () -> Cpu.store m.cpu ~addr:0x8000 ~bytes:64)
    ([ 90; 80; 0; 0; 2; 1; 0 ], 90.)

let test_as_switch_flushes_tlb () =
  let m = create Config.pentium_133 in
  Cpu.load m.cpu ~addr:0x9000 ~bytes:4;
  Cpu.load m.cpu ~addr:0x9000 ~bytes:4;
  (* one switch, then the warm line's page walks again after the flush *)
  check_pin "switch then load" m.cpu
    (fun () ->
      Cpu.switch_address_space m.cpu;
      Cpu.load m.cpu ~addr:0x9000 ~bytes:4)
    ([ 70; 4; 0; 0; 0; 1; 1 ], 126.)

(* A raw stall moves the clock and nothing else. *)
let test_stall_charges () =
  let m = create Config.pentium_133 in
  check_pin "pentium stall" m.cpu (fun () -> Cpu.stall m.cpu 1234)
    ([ 1234; 0; 0; 0; 0; 0; 0 ], 1234.);
  let m = smp4 () in
  set_active m 2;
  check_pin "smp stall" m.cpu (fun () -> Cpu.stall m.cpu 1234)
    ([ 1234; 0; 0; 0; 0; 0; 0 ], 1234.)

(* One framebuffer row is one uncached write: bus cycles per word, no
   cache or TLB traffic.  The frame buffer bills the CPU that draws, and
   leaves the boot CPU alone when another CPU is active. *)
let test_uncached_write_charges () =
  let row m () =
    Framebuffer.fill_rect m.framebuffer m.cpu ~x:0 ~y:0 ~w:40 ~h:1 ~pixel:'u'
  in
  let m = create Config.pentium_133 in
  check_pin "pentium row" m.cpu (row m)
    ([ 10; 40; 0; 0; 0; 0; 0 ], 10.);
  let m = smp4 () in
  set_active m 2;
  check_pin "smp row, CPU 0" (nth_cpu m 0)
    (fun () ->
      check_pin "smp row" (nth_cpu m 2) (row m)
        ([ 10; 40; 0; 0; 0; 0; 0 ], 10.))
    ([ 0; 0; 0; 0; 0; 0; 0 ], 0.)

(* The sender of an IPI stalls for [ipi_cycles]. *)
let test_ipi_sender_charges () =
  let m = create Config.pentium_133 in
  check_pin "pentium ipi" m.cpu (fun () -> ipi m ~target:0)
    ([ 60; 0; 0; 0; 0; 0; 0 ], 60.);
  let m = smp4 () in
  set_active m 1;
  check_pin "smp ipi" m.cpu (fun () -> ipi m ~target:3)
    ([ 50; 0; 0; 0; 0; 0; 0 ], 50.)

let test_disk_roundtrip () =
  let m = create Config.pentium_133 in
  let data = Bytes.make 512 'x' in
  let done_ = ref false in
  Disk.write m.disk ~block:10 [ data ] (fun () -> done_ := true);
  while Machine.advance_to_next_event m do () done;
  Alcotest.(check bool) "write completed" true !done_;
  let got = ref Bytes.empty in
  Disk.read m.disk ~block:10 ~count:1 (fun b -> got := b);
  while Machine.advance_to_next_event m do () done;
  Alcotest.(check bytes) "data persisted" data !got

let test_disk_latency_and_interrupts () =
  let m = create Config.pentium_133 in
  let t0 = now m in
  let done_at = ref 0 in
  Disk.read m.disk ~block:0 ~count:4 (fun _ -> done_at := now m);
  while Machine.advance_to_next_event m do () done;
  let g = Disk.default_geometry in
  let expected = g.Disk.seek_cycles + (4 * g.Disk.transfer_cycles_per_block) in
  Alcotest.(check int) "service time" expected (!done_at - t0);
  let p = Perf.snapshot (Cpu.perf m.cpu) in
  Alcotest.(check int) "interrupt delivered" 1 p.Perf.interrupts

let test_disk_fifo_queue () =
  let m = create Config.pentium_133 in
  let order = ref [] in
  Disk.read m.disk ~block:0 ~count:1 (fun _ -> order := 1 :: !order);
  Disk.read m.disk ~block:100 ~count:1 (fun _ -> order := 2 :: !order);
  Disk.read m.disk ~block:200 ~count:1 (fun _ -> order := 3 :: !order);
  while Machine.advance_to_next_event m do () done;
  Alcotest.(check (list int)) "FIFO order" [ 3; 2; 1 ] !order

(* DMA bus traffic follows the blocks moved, whichever the direction *)
let test_disk_dma_bus_cycles () =
  let m = create Config.pentium_133 in
  let bus () = (Perf.snapshot (Cpu.perf m.cpu)).Perf.bus_cycles in
  let b0 = bus () in
  Disk.read m.disk ~block:10 ~count:1 (fun _ -> ());
  while Machine.advance_to_next_event m do () done;
  let b1 = bus () in
  Disk.write m.disk ~block:10 [ Bytes.make 512 'x' ] (fun () -> ());
  while Machine.advance_to_next_event m do () done;
  let b2 = bus () in
  Alcotest.(check bool) "a read moves bus traffic" true (b1 - b0 > 0);
  Alcotest.(check int) "one-block write = one-block read" (b1 - b0) (b2 - b1)

(* A gather list is one request: one seek plus a transfer per block *)
let test_disk_gather_write () =
  let m = create Config.pentium_133 in
  let t0 = now m in
  let done_at = ref 0 in
  let bufs = [ Bytes.make 512 'a'; Bytes.make 1024 'b'; Bytes.make 512 'c' ] in
  Disk.write m.disk ~block:20 bufs (fun () -> done_at := now m);
  while Machine.advance_to_next_event m do () done;
  let g = Disk.default_geometry in
  let expected = g.Disk.seek_cycles + (4 * g.Disk.transfer_cycles_per_block) in
  Alcotest.(check int) "one seek, four transfers" expected (!done_at - t0);
  Alcotest.(check int) "one request" 1 (Disk.requests_served m.disk);
  Alcotest.(check bytes) "laid out back to back" (Bytes.concat Bytes.empty bufs)
    (Disk.read_image m.disk ~block:20 ~count:4)

(* --- barriers ----------------------------------------------------------------

   The disk has no volatile write cache, so a barrier is an ordering
   point, not a request: it runs with the newest request submitted
   before it, once that request and every reorder-held write are on the
   media. *)

let drain m = while Machine.advance_to_next_event m do () done

let test_barrier_costs_no_seek () =
  let m = create Config.pentium_133 in
  let t0 = now m in
  let write_at = ref 0 and barrier_at = ref 0 in
  Disk.write m.disk ~block:20 [ Bytes.make 2048 'w' ] (fun () ->
      write_at := now m);
  Disk.barrier m.disk (fun () -> barrier_at := now m);
  drain m;
  let g = Disk.default_geometry in
  let expected = g.Disk.seek_cycles + (4 * g.Disk.transfer_cycles_per_block) in
  Alcotest.(check int) "the write's service time" expected (!write_at - t0);
  Alcotest.(check int) "the barrier completes with the write" !write_at
    !barrier_at;
  Alcotest.(check int) "a barrier is not a request" 1
    (Disk.requests_served m.disk)

let test_barrier_after_earlier_writes () =
  let m = create Config.pentium_133 in
  let a = Bytes.make 512 'a' and b = Bytes.make 512 'b' in
  let b_at = ref 0 and seen = ref [] in
  Disk.write m.disk ~block:30 [ a ] (fun () -> ());
  Disk.write m.disk ~block:31 [ b ] (fun () -> b_at := now m);
  Disk.barrier m.disk (fun () ->
      seen := [ Disk.read_image m.disk ~block:30 ~count:1;
                Disk.read_image m.disk ~block:31 ~count:1 ];
      Alcotest.(check int) "rides on the newest queued write" !b_at (now m));
  drain m;
  Alcotest.(check (list bytes)) "both writes on the media" [ a; b ] !seen

(* The seeded known-bad case: a barrier that skipped the reorder-held
   writes would see the held write's block still empty.  The write is
   the only one before the barrier, so whatever window seed 2 draws,
   only the barrier can land it; the test checks the hold. *)
let test_barrier_lands_held_writes () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  Drivers.Disk_driver.arm_faults k disk;
  let plan = Mach.Fault.create ~seed:2 () in
  Mach.Fault.script plan ~site:(Disk.name disk) ~n:1 Mach.Fault.Reorder;
  sys.Mach.Sched.faults <- Some plan;
  let data = Bytes.make 512 'r' and zero = Bytes.make 512 '\000' in
  let at_write = ref Bytes.empty and at_barrier = ref Bytes.empty in
  Test_util.run_in_thread k (fun () ->
      Disk.write disk ~block:40 [ data ] (fun () ->
          at_write := Disk.read_image disk ~block:40 ~count:1);
      Mach.Sched.await sys "test-barrier" (fun wake ->
          Disk.barrier disk (fun () ->
              at_barrier := Disk.read_image disk ~block:40 ~count:1;
              wake ())));
  Alcotest.(check int) "the write was held" 1
    (Mach.Fault.injected plan ~site:(Disk.name disk) Mach.Fault.Reorder);
  Alcotest.(check bytes) "held past its own completion" zero !at_write;
  Alcotest.(check bytes) "landed before the barrier ran" data !at_barrier

(* A hold of one write outlasts exactly one later write: it is not on
   the media at its own completion and lands with the next write. *)
let test_reorder_hold_of_one () =
  let m = create Config.pentium_133 in
  let a = Bytes.make 512 'a' and b = Bytes.make 512 'b' in
  Disk.set_write_interceptor m.disk
    (Some
       (fun ~block ~data:_ -> if block = 60 then Disk.Wf_reorder 1 else Disk.Wf_pass));
  let at_a = ref Bytes.empty and at_b = ref [] in
  Disk.write m.disk ~block:60 [ a ] (fun () ->
      at_a := Disk.read_image m.disk ~block:60 ~count:1);
  Disk.write m.disk ~block:61 [ b ] (fun () ->
      at_b := [ Disk.read_image m.disk ~block:60 ~count:1;
                Disk.read_image m.disk ~block:61 ~count:1 ]);
  drain m;
  Alcotest.(check bytes) "held past its own completion" (Bytes.make 512 '\000')
    !at_a;
  Alcotest.(check (list bytes)) "landed with the next write" [ a; b ] !at_b

let test_barriers_run_in_call_order () =
  let m = create Config.pentium_133 in
  let order = ref [] in
  Disk.write m.disk ~block:50 [ Bytes.make 512 'x' ] (fun () ->
      order := "write" :: !order);
  Disk.barrier m.disk (fun () -> order := "first" :: !order);
  Disk.barrier m.disk (fun () -> order := "second" :: !order);
  drain m;
  Alcotest.(check (list string)) "write, then barriers in call order"
    [ "write"; "first"; "second" ] (List.rev !order)

let test_barrier_on_idle_disk () =
  let m = create Config.pentium_133 in
  let ran = ref false in
  Disk.barrier m.disk (fun () -> ran := true);
  Alcotest.(check bool) "runs at once" true !ran;
  Alcotest.(check int) "no request" 0 (Disk.requests_served m.disk)

let test_disk_bounds () =
  let m = create Config.pentium_133 in
  Alcotest.check_raises "out of range" (Invalid_argument "range")
    (fun () ->
      try Disk.read m.disk ~block:(-1) ~count:1 (fun _ -> ())
      with Invalid_argument _ -> raise (Invalid_argument "range"))

(* --- sparse media -------------------------------------------------------------

   The media is stored in 32 KiB chunks allocated on first write, so 64
   blocks of 512 bytes to a chunk: block 63 ends chunk 0 and block 64
   starts chunk 1. *)

let zeros n = Bytes.make n '\000'

(* one straddling buffer: blocks 62-65, the boundary 1024 bytes in *)
let straddle = Bytes.init 2048 (fun i -> Char.chr (1 + (i mod 251)))

let test_unwritten_reads_zero () =
  let m = create Config.pentium_133 in
  let last = Disk.default_geometry.Disk.blocks - 1 in
  Disk.write m.disk ~block:64 [ Bytes.make 512 'x' ] (fun () -> ());
  drain m;
  List.iter
    (fun block ->
      let got = ref Bytes.empty in
      Disk.read m.disk ~block ~count:1 (fun b -> got := b);
      drain m;
      let what = Printf.sprintf "block %d" block in
      Alcotest.(check bytes) (what ^ " via read") (zeros 512) !got;
      Alcotest.(check bytes) (what ^ " via read_image") (zeros 512)
        (Disk.read_image m.disk ~block ~count:1))
    [ 0; 63; 65; last ]

let test_gather_write_straddles_chunk () =
  let m = create Config.pentium_133 in
  let bufs = [ Bytes.make 512 'a'; straddle; Bytes.make 512 'c' ] in
  Disk.write m.disk ~block:61 bufs (fun () -> ());
  drain m;
  let got = ref Bytes.empty in
  Disk.read m.disk ~block:60 ~count:8 (fun b -> got := b);
  drain m;
  Alcotest.(check bytes) "read back intact"
    (Bytes.concat Bytes.empty ((zeros 512 :: bufs) @ [ zeros 512 ]))
    !got

(* a write through an interceptor that returns [fault] for it *)
let faulted_write m ~block data fault =
  Disk.set_write_interceptor m.disk (Some (fun ~block:_ ~data:_ -> fault));
  Disk.write m.disk ~block [ data ] (fun () -> ());
  drain m;
  Disk.set_write_interceptor m.disk None

let test_torn_write_straddles_chunk () =
  let m = create Config.pentium_133 in
  (* entropy 300 keeps 300 of the 512 granules: 1200 bytes *)
  faulted_write m ~block:62 straddle (Disk.Wf_torn 300);
  let expected = Bytes.cat (Bytes.sub straddle 0 1200) (zeros (2048 - 1200)) in
  Alcotest.(check bytes) "exactly the aligned prefix" expected
    (Disk.read_image m.disk ~block:62 ~count:4)

let test_bit_rot_flips_one_bit () =
  let m = create Config.pentium_133 in
  (* bit 3 of byte 1100, past the chunk boundary *)
  faulted_write m ~block:62 straddle (Disk.Wf_bit_rot ((1100 * 8) + 3));
  let got = Disk.read_image m.disk ~block:62 ~count:4 in
  let rec popcount v = if v = 0 then 0 else (v land 1) + popcount (v lsr 1) in
  let flipped = ref 0 in
  Bytes.iteri
    (fun i c ->
      flipped :=
        !flipped + popcount (Char.code c lxor Char.code (Bytes.get straddle i)))
    got;
  Alcotest.(check int) "one bit flipped" 1 !flipped;
  Alcotest.(check int) "the chosen bit"
    (Char.code (Bytes.get straddle 1100) lxor 8)
    (Char.code (Bytes.get got 1100))

let test_write_image_powered_off () =
  let m = create Config.pentium_133 in
  faulted_write m ~block:10 (Bytes.make 512 'x') Disk.Wf_power_cut;
  Alcotest.(check bool) "power cut" false (Disk.powered_on m.disk);
  Disk.write_image m.disk ~block:62 straddle;
  Alcotest.(check bytes) "dropped: the cut write" (zeros 512)
    (Disk.read_image m.disk ~block:10 ~count:1);
  Alcotest.(check bytes) "dropped: the raw write" (zeros 2048)
    (Disk.read_image m.disk ~block:62 ~count:4)

(* The media is sparse: booting perfbench's machine must not allocate
   its 20 MB disk up front (a dense store costs 20.4 MiB here). *)
let test_create_allocation () =
  let config = Config.with_ncpus Config.ppc604_133 ~n:4 in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (create config : Machine.t);
  let mib = (Gc.allocated_bytes () -. before) /. 1048576. in
  if mib >= 1.0 then
    Alcotest.failf "Machine.create allocated %.2f MiB (limit 1 MiB)" mib

let test_framebuffer () =
  let m = create Config.pentium_133 in
  let fb = m.framebuffer in
  Alcotest.(check char) "untouched reads zero" '\000'
    (Framebuffer.pixel fb ~x:0 ~y:0);
  let before = Perf.snapshot (Cpu.perf m.cpu) in
  Framebuffer.fill_rect fb m.cpu ~x:10 ~y:10 ~w:20 ~h:5 ~pixel:'z';
  let d = Perf.diff (Perf.snapshot (Cpu.perf m.cpu)) before in
  Alcotest.(check char) "pixel set" 'z' (Framebuffer.pixel fb ~x:15 ~y:12);
  Alcotest.(check char) "outside untouched" '\000' (Framebuffer.pixel fb ~x:5 ~y:5);
  Alcotest.(check int) "pixels counted" 100 (Framebuffer.pixels_written fb);
  Alcotest.(check bool) "uncached stores cost bus" true (d.Perf.bus_cycles > 0)

let test_irq_spurious () =
  let m = create Config.pentium_133 in
  Irq.raise_line m.irq 5;
  Alcotest.(check int) "spurious counted" 1 (Irq.spurious m.irq);
  let hits = ref 0 in
  Irq.register m.irq ~line:5 ~name:"t" (fun () -> incr hits);
  Irq.raise_line m.irq 5;
  Alcotest.(check int) "handler ran" 1 !hits

let test_perf_diff () =
  let p = Perf.create () in
  let acc = Perf.acc p in
  Perf.add_instructions p 10;
  acc.cycles <- acc.cycles +. 25.0;
  let s1 = Perf.snapshot p in
  Perf.add_instructions p 5;
  acc.cycles <- acc.cycles +. 10.0;
  let d = Perf.diff (Perf.snapshot p) s1 in
  Alcotest.(check int) "inst delta" 5 d.Perf.instructions;
  Alcotest.(check int) "cycle delta" 10 d.Perf.cycles;
  Alcotest.(check (float 0.01)) "cpi" 2.0 (Perf.cpi d)

(* --- the models against their reference ----------------------------------- *)

let agree what step pp want got =
  if want <> got then
    Alcotest.failf "%s, step %d: reference %s, model %s" what step (pp want)
      (pp got)

let agree_bool what step = agree what step string_of_bool
let agree_int what step = agree what step string_of_int

(* Seeded random streams through both implementations; every result and
   every resident count must match.  Addresses span four times the
   cache so sets conflict, and TLB pages come from a working set a
   little larger than the TLB plus pages 256 apart, which share a memo
   slot. *)
let test_cache_matches_reference () =
  List.iter
    (fun (g : Config.cache_geometry) ->
      let rng = Random.State.make [| g.size; g.assoc |] in
      let model = Cache.create g and oracle = Ref_cache.create g in
      let what = Printf.sprintf "%d/%d/%d" g.size g.line g.assoc in
      for step = 1 to 40_000 do
        let addr = Random.State.int rng (4 * g.size) in
        (match Random.State.int rng 100 with
        | 0 ->
            Cache.flush model;
            Ref_cache.flush oracle
        | n when n < 20 ->
            agree_bool (what ^ " probe") step (Ref_cache.probe oracle addr)
              (Cache.probe model addr)
        | _ ->
            agree_bool (what ^ " access") step
              (Ref_cache.access oracle addr)
              (Cache.access model addr));
        agree_int (what ^ " resident") step (Ref_cache.resident oracle)
          (Cache.resident model)
      done)
    [
      Config.pentium_133.icache;
      Config.ppc604_133.dcache;
      { Config.size = 1024; line = 32; assoc = 2 };
      { Config.size = 256; line = 16; assoc = 4 };
      { Config.size = 512; line = 64; assoc = 1 };
      { Config.size = 768; line = 32; assoc = 3 };
    ]

let test_tlb_matches_reference () =
  List.iter
    (fun (c : Config.t) ->
      let entries = c.tlb_entries and page_size = c.page_size in
      let rng = Random.State.make [| entries |] in
      let model = Tlb.create ~entries ~page_size
      and oracle = Ref_tlb.create ~entries ~page_size in
      let what = Printf.sprintf "%d-entry tlb" entries in
      for step = 1 to 40_000 do
        let page =
          if Random.State.bool rng then Random.State.int rng (entries + entries / 4)
          else Random.State.int rng 16 * 256
        in
        let vaddr = (page * page_size) + Random.State.int rng page_size in
        (match Random.State.int rng 200 with
        | 0 ->
            Tlb.flush model;
            Ref_tlb.flush oracle
        | n when n < 10 ->
            Tlb.invalidate model vaddr;
            Ref_tlb.invalidate oracle vaddr
        | _ ->
            agree_bool (what ^ " access") step
              (Ref_tlb.access oracle vaddr)
              (Tlb.access model vaddr));
        agree_int (what ^ " resident") step (Ref_tlb.resident oracle)
          (Tlb.resident model)
      done)
    [ Config.pentium_133; Config.ppc604_133; { Config.ppc604_133 with tlb_entries = 2 } ]

(* Per-CPU clocks advance by random steps, so a lagging CPU books into
   windows a sibling has already passed, and demand averages about three
   windows' capacity, so windows oversubscribe.  Half the lines come from
   a hot set of 1024, whose reads of remote-written lines exercise
   removal; the rest from 64 K lines, which grow the directory's table
   twice. *)
let test_bus_matches_reference () =
  List.iter
    (fun ncpus ->
      let rng = Random.State.make [| ncpus |] in
      let model = Bus.create ~ncpus and oracle = Ref_bus.create ~ncpus in
      let clocks = Array.make ncpus 0. in
      let what = Printf.sprintf "%d CPUs" ncpus in
      for step = 1 to 100_000 do
        let cpu = Random.State.int rng ncpus in
        clocks.(cpu) <-
          clocks.(cpu) +. float_of_int (Random.State.int rng 200)
          +. if Random.State.bool rng then 0.5 else 0.;
        if Random.State.int rng 3 = 0 then begin
          let now = clocks.(cpu) and bus_cycles = 1 + Random.State.int rng 512 in
          agree (what ^ " acquire") step string_of_float
            (Ref_bus.acquire oracle ~now ~bus_cycles)
            (float_of_int (Bus.acquire model ~now ~bus_cycles))
        end
        else begin
          let line =
            32 * Random.State.int rng (if Random.State.bool rng then 1024 else 65536)
          and write = Random.State.int rng 4 = 0 in
          agree_bool (what ^ " note_access") step
            (Ref_bus.note_access oracle ~cpu ~line ~write)
            (Bus.note_access model ~cpu ~line ~write)
        end
      done;
      agree_int (what ^ " transactions") 0 oracle.Ref_bus.transactions
        (Bus.transactions model))
    [ 1; 4 ]

let test_geometry_power_of_two () =
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  raises "48-byte lines" (fun () ->
      Cache.create { Config.size = 1536; line = 48; assoc = 2 });
  raises "3 sets" (fun () ->
      Cache.create { Config.size = 384; line = 32; assoc = 4 });
  raises "3000-byte pages" (fun () -> Tlb.create ~entries:8 ~page_size:3000)

(* A warm 4-CPU machine re-touching resident lines: a load allocates
   nothing.  What a fetch or a store allocates is the one float its
   cycle charge boxes, the CPU clock (2 words): the charge is inlined,
   the cycle counter is stored flat and a bus stall is an int. *)
let test_hot_path_allocation () =
  let m = create (Config.with_ncpus Config.ppc604_133 ~n:4) in
  let code = Layout.alloc m.layout ~name:"code" ~kind:Layout.Code ~size:4096 in
  let data = Layout.alloc m.layout ~name:"data" ~kind:Layout.Data ~size:4096 in
  let addr = data.Layout.base in
  let cpu = m.cpu in
  let fetch () = Cpu.fetch cpu code ~offset:0 ~bytes:256 in
  let load () = Cpu.load cpu ~addr ~bytes:64 in
  let store () = Cpu.store cpu ~addr ~bytes:64 in
  (* a stall and a switch box only the new clock; the switch flushes the
     TLB, so it is measured after every TLB-warm charge *)
  let stall () = Cpu.stall cpu 5 in
  let switch () = Cpu.switch_address_space cpu in
  List.iter (fun f -> f (); f ()) [ fetch; load; store ];
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let baseline = words (fun () -> ()) in
  List.iter
    (fun (what, f, limit) ->
      Alcotest.(check (float 0.)) (what ^ ": words") limit (words f -. baseline))
    [
      ("fetch 256 B", fetch, 2.);
      ("load 64 B", load, 0.);
      ("store 64 B", store, 2.);
      ("stall", stall, 2.);
      ("AS switch", switch, 2.);
    ]

let suite =
  [
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache conflict LRU" `Quick test_cache_conflict_lru;
    Alcotest.test_case "cache flush" `Quick test_cache_flush;
    Alcotest.test_case "tlb" `Quick test_tlb;
    Alcotest.test_case "layout" `Quick test_layout;
    Alcotest.test_case "layout exhaustion" `Quick test_layout_exhaustion;
    Alcotest.test_case "event queue" `Quick test_event_queue;
    Alcotest.test_case "cpu charges" `Quick test_cpu_charges;
    Alcotest.test_case "write-through bus" `Quick test_write_through_bus;
    Alcotest.test_case "AS switch flushes TLB" `Quick test_as_switch_flushes_tlb;
    Alcotest.test_case "disk roundtrip" `Quick test_disk_roundtrip;
    Alcotest.test_case "disk latency+irq" `Quick test_disk_latency_and_interrupts;
    Alcotest.test_case "disk FIFO" `Quick test_disk_fifo_queue;
    Alcotest.test_case "disk DMA bus cycles" `Quick test_disk_dma_bus_cycles;
    Alcotest.test_case "disk gather write" `Quick test_disk_gather_write;
    Alcotest.test_case "barrier costs no seek" `Quick test_barrier_costs_no_seek;
    Alcotest.test_case "barrier after earlier writes" `Quick
      test_barrier_after_earlier_writes;
    Alcotest.test_case "barrier lands held writes" `Quick
      test_barrier_lands_held_writes;
    Alcotest.test_case "reorder hold of one write" `Quick
      test_reorder_hold_of_one;
    Alcotest.test_case "barriers run in call order" `Quick
      test_barriers_run_in_call_order;
    Alcotest.test_case "barrier on idle disk" `Quick test_barrier_on_idle_disk;
    Alcotest.test_case "disk bounds" `Quick test_disk_bounds;
    Alcotest.test_case "unwritten blocks read zero" `Quick
      test_unwritten_reads_zero;
    Alcotest.test_case "gather write across a chunk" `Quick
      test_gather_write_straddles_chunk;
    Alcotest.test_case "torn write across a chunk" `Quick
      test_torn_write_straddles_chunk;
    Alcotest.test_case "bit rot flips one bit" `Quick test_bit_rot_flips_one_bit;
    Alcotest.test_case "write_image while powered off" `Quick
      test_write_image_powered_off;
    Alcotest.test_case "create allocates under 1 MiB" `Quick
      test_create_allocation;
    Alcotest.test_case "framebuffer" `Quick test_framebuffer;
    Alcotest.test_case "irq spurious" `Quick test_irq_spurious;
    Alcotest.test_case "perf diff" `Quick test_perf_diff;
    Alcotest.test_case "cache matches its reference" `Quick
      test_cache_matches_reference;
    Alcotest.test_case "tlb matches its reference" `Quick
      test_tlb_matches_reference;
    Alcotest.test_case "bus matches its reference" `Quick
      test_bus_matches_reference;
    Alcotest.test_case "geometry must be a power of two" `Quick
      test_geometry_power_of_two;
    Alcotest.test_case "hot path allocation" `Quick test_hot_path_allocation;
    Alcotest.test_case "stall charges" `Quick test_stall_charges;
    Alcotest.test_case "uncached write charges" `Quick
      test_uncached_write_charges;
    Alcotest.test_case "ipi sender charges" `Quick test_ipi_sender_charges;
  ]
