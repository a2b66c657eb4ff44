type dloc =
  | Kdata of int  (* offset into the kernel data region *)
  | Frame of int  (* offset from the current kernel stack frame *)

type chunk = {
  ck_region : [ `Core | `Ipc ];
  ck_offset : int;
  ck_bytes : int;
  ck_loads : (dloc * int) list;
  ck_stores : (dloc * int) list;
}

type buffer_stats = {
  bs_allocs : int;
  bs_frees : int;
  bs_recycles : int;
  bs_resets : int;
  bs_in_use_bytes : int;
  bs_peak_bytes : int;
  bs_capacity_bytes : int;
}

type t = {
  machine : Machine.t;
  text : Machine.Layout.region;
  ipc_text : Machine.Layout.region;
  data : Machine.Layout.region;
  buffers : Machine.Layout.region;
  percpu : Machine.Layout.region option;
      (* SMP only: per-CPU replicas of the hot kernel data structures
         (run queue, port/message bookkeeping, timer state), one 4 KB
         window per CPU.  The scheduler rework keeps each CPU's kernel
         state CPU-local — cross-CPU changes travel as messages — so
         [Kdata] traffic resolves into the executing CPU's window and
         never ping-pongs coherence.  [None] on a uniprocessor: there
         [Kdata] stays in [data] and the address stream is bit-for-bit
         the pre-SMP one. *)
  scratch_frame : int;
  (* kernel message-buffer free list: extents of (offset, size) within
     [buffers], sorted by offset, plus live reservations by address.
     [buf_next] is the next-fit roving pointer. *)
  mutable buf_free : (int * int) list;
  mutable buf_next : int;
  buf_live : (int, int) Hashtbl.t;
  (* size-class quick lists: freed small buffers parked by rounded size
     for LIFO reuse, the way kalloc front-ends the VM allocator.  A hit
     here is a recycle; the extents only see small frees when the quick
     lists are flushed under pressure.  Keyed by (cpu, size): on an SMP
     machine each CPU recycles the buffers it freed, objcache-style, so
     a warm message buffer never migrates to another CPU's cache via
     the free list (on one CPU the key degenerates to the size). *)
  buf_quick : (int * int, int list ref) Hashtbl.t;
  mutable buf_allocs : int;
  mutable buf_frees : int;
  mutable buf_recycles : int;
  mutable buf_resets : int;
  mutable buf_in_use : int;
  mutable buf_peak : int;
  (* Machcheck attachment: the buffer-lifetime sanitizer mirrors this
     free list.  None = off, and every hook below is a single match. *)
  mutable kt_checks : Check.t option;
  mutable kt_space : int;
}

let create (m : Machine.t) =
  let alloc name kind size = Machine.Layout.alloc m.layout ~name ~kind ~size in
  let text = alloc "kernel.text" Machine.Layout.Code (64 * 1024) in
  let ipc_text = alloc "kernel.ipc-text" Machine.Layout.Code (48 * 1024) in
  let data = alloc "kernel.data" Machine.Layout.Data (64 * 1024) in
  let buffers = alloc "kernel.msg-buffers" Machine.Layout.Data (64 * 1024) in
  let ncpus = m.Machine.config.Machine.Config.ncpus in
  let percpu =
    if ncpus > 1 then
      Some (alloc "kernel.percpu-data" Machine.Layout.Data (ncpus * 4096))
    else None
  in
  {
    machine = m;
    text;
    ipc_text;
    data;
    buffers;
    percpu;
    scratch_frame = data.Machine.Layout.base + (60 * 1024);
    buf_free = [ (0, buffers.Machine.Layout.size) ];
    buf_next = 0;
    buf_live = Hashtbl.create 64;
    buf_quick = Hashtbl.create 16;
    buf_allocs = 0;
    buf_frees = 0;
    buf_recycles = 0;
    buf_resets = 0;
    buf_in_use = 0;
    buf_peak = 0;
    kt_checks = Check.installed ();
    kt_space = (match Check.installed () with Some c -> Check.new_space c | None -> 0);
  }

let set_checks t chk =
  t.kt_checks <- Some chk;
  t.kt_space <- Check.new_space chk

let machine t = t.machine
let text t = t.text
let data t = t.data

let chunk ?(region = `Core) ~offset ~bytes ?(loads = []) ?(stores = []) () =
  { ck_region = region; ck_offset = offset; ck_bytes = bytes;
    ck_loads = loads; ck_stores = stores }

(* --- Chunk table ------------------------------------------------------ *)
(* Offsets are within the owning text region; the core region and the
   ipc region are page-aligned, so (offset mod 4096) determines I-cache
   set placement on the 8 KB 2-way Pentium cache. *)

(* Trap path: chosen so its pieces occupy disjoint set ranges — the hot
   trap path of a tuned kernel stays cache-resident. *)
let trap_entry =
  chunk ~offset:0x0100 ~bytes:560
    ~stores:[ (Frame 0, 128) ]  (* push register frame *)
    ~loads:[ (Kdata 0x040, 16) ] ()

let syscall_dispatch =
  chunk ~offset:0x0c00 ~bytes:192 ~loads:[ (Kdata 0x080, 32) ] ()

let thread_self_service =
  chunk ~offset:0x0800 ~bytes:560
    ~loads:[ (Kdata 0x100, 32) ]
    ~stores:[ (Frame 128, 96) ] ()

let generic_service =
  chunk ~offset:0x0a30 ~bytes:448
    ~loads:[ (Kdata 0x140, 64) ]
    ~stores:[ (Frame 128, 32) ] ()

let trap_exit =
  chunk ~offset:0x0400 ~bytes:416 ~loads:[ (Frame 0, 128) ] ()

(* IBM RPC path: the rework's lighter kernel entry plus send/reply
   bodies.  Offsets deliberately alias user stubs and each other mod
   4 KB (0x1100 = 0x100, 0x1400/0x1500 = 0x400/0x500, 0x2400 = 0x400),
   the way an unlaid-out kernel link map falls out; this is the source
   of the RPC path's steady-state I-cache misses. *)
let rpc_entry =
  chunk ~offset:0x1100 ~bytes:384 ~stores:[ (Frame 0, 96) ]
    ~loads:[ (Kdata 0x040, 16) ] ()

let rpc_send =
  chunk ~offset:0x1500 ~bytes:512
    ~loads:[ (Kdata 0x200, 96) ]
    ~stores:[ (Kdata 0x240, 256); (Frame 160, 64) ] ()

let rpc_reply =
  chunk ~offset:0x1400 ~bytes:448
    ~loads:[ (Kdata 0x240, 96) ]
    ~stores:[ (Kdata 0x280, 192) ] ()

let cap_translate =
  chunk ~offset:0x1f00 ~bytes:160 ~loads:[ (Kdata 0x300, 64) ] ()

let rpc_handoff =
  chunk ~offset:0x1c00 ~bytes:288
    ~loads:[ (Kdata 0x340, 32) ]
    ~stores:[ (Kdata 0x360, 96) ] ()

(* Scheduler and switch machinery. *)
let sched_pick =
  chunk ~offset:0x2100 ~bytes:192 ~loads:[ (Kdata 0x400, 96) ] ()

let context_switch =
  chunk ~offset:0x2400 ~bytes:288
    ~stores:[ (Frame 0, 224) ]  (* save outgoing register state *)
    ~loads:[ (Frame 256, 224) ]  (* load incoming state *) ()

let pmap_switch =
  chunk ~offset:0x2900 ~bytes:160 ~loads:[ (Kdata 0x480, 32) ] ()

(* VM paths. *)
let vm_fault_path =
  chunk ~offset:0x3000 ~bytes:1280
    ~loads:[ (Kdata 0x500, 128) ]
    ~stores:[ (Kdata 0x580, 64); (Frame 0, 64) ] ()

let vm_map_enter =
  chunk ~offset:0x3800 ~bytes:512
    ~loads:[ (Kdata 0x600, 64) ]
    ~stores:[ (Kdata 0x640, 64) ] ()

let vm_page_insert =
  chunk ~offset:0x3a00 ~bytes:256 ~stores:[ (Kdata 0x680, 32) ] ()

(* Zero-copy remap: clip/split the source map entry, enter the object
   into the destination map, adjust protections.  Charged once per map
   entry regardless of how many bytes it covers — that independence from
   byte count is the whole point of the remap path (the per-page cost is
   the TLB shootdown the caller charges at the machine layer). *)
let vm_remap_entry =
  chunk ~offset:0x3c00 ~bytes:480
    ~loads:[ (Kdata 0x600, 64); (Kdata 0x680, 32) ]
    ~stores:[ (Kdata 0x640, 64) ] ()

let pageout_path =
  chunk ~offset:0x3e00 ~bytes:640
    ~loads:[ (Kdata 0x6c0, 96) ]
    ~stores:[ (Kdata 0x700, 64) ] ()

(* Interrupts, I/O, timers, synchronizers. *)
let irq_entry =
  chunk ~offset:0x4100 ~bytes:384 ~stores:[ (Frame 0, 96) ] ()

let irq_reflect =
  chunk ~offset:0x4300 ~bytes:512
    ~loads:[ (Kdata 0x740, 32) ]
    ~stores:[ (Kdata 0x760, 32) ] ()

let dma_setup =
  chunk ~offset:0x4600 ~bytes:448
    ~loads:[ (Kdata 0x7a0, 32) ]
    ~stores:[ (Kdata 0x7c0, 48) ] ()

let timer_service =
  chunk ~offset:0x4900 ~bytes:384
    ~loads:[ (Kdata 0x800, 48) ]
    ~stores:[ (Kdata 0x820, 16) ] ()

let sync_fast =
  chunk ~offset:0x4b00 ~bytes:224
    ~loads:[ (Kdata 0x840, 16) ]
    ~stores:[ (Kdata 0x850, 16) ] ()

let sync_block =
  chunk ~offset:0x4d00 ~bytes:320
    ~loads:[ (Kdata 0x860, 32) ]
    ~stores:[ (Kdata 0x880, 32) ] ()

(* Dead-name notification delivery: walk the port's watcher list and
   post each notification (the supervision machinery rides on this). *)
let notify_path =
  chunk ~offset:0x5100 ~bytes:224
    ~loads:[ (Kdata 0x8a0, 32) ]
    ~stores:[ (Kdata 0x8c0, 32) ] ()

(* Fault-injection bookkeeping: only charged when a plan actually
   injects something, so a disabled plan perturbs no measurement. *)
let fault_inject =
  chunk ~offset:0x5300 ~bytes:160 ~loads:[ (Kdata 0x8e0, 16) ] ()

(* The copy loop: one fetch of the loop body per 32-byte line moved. *)
let copy_loop = chunk ~offset:0x2300 ~bytes:32 ()

(* --- Mach 3.0 mach_msg path (the code the rework deleted) ------------- *)
(* Substantially larger text, heavier queue manipulation, and reply-port
   management on every interaction. *)

let ipc ~offset ~bytes ?(loads = []) ?(stores = []) () =
  chunk ~region:`Ipc ~offset ~bytes ~loads ~stores ()

let mach_msg_entry =
  ipc ~offset:0x0100 ~bytes:2304
    ~loads:[ (Kdata 0x900, 192) ]
    ~stores:[ (Frame 0, 192); (Kdata 0x940, 96) ] ()

let msg_copyin =
  ipc ~offset:0x0c00 ~bytes:1536
    ~loads:[ (Kdata 0x980, 96) ]
    ~stores:[ (Kdata 0x9c0, 96) ] ()

let right_transfer =
  ipc ~offset:0x1400 ~bytes:1024
    ~loads:[ (Kdata 0xa00, 96) ]
    ~stores:[ (Kdata 0xa40, 96) ] ()

let msg_enqueue =
  ipc ~offset:0x1900 ~bytes:1280
    ~loads:[ (Kdata 0xa80, 128) ]
    ~stores:[ (Kdata 0xac0, 192) ] ()

let reply_port_setup =
  ipc ~offset:0x1f00 ~bytes:1152
    ~loads:[ (Kdata 0xb00, 64) ]
    ~stores:[ (Kdata 0xb40, 64) ] ()

(* The per-thread reply-port cache hit: a table lookup and a liveness
   check instead of allocate/setup/deallocate on every interaction. *)
let reply_port_reuse =
  ipc ~offset:0x5600 ~bytes:160 ~loads:[ (Kdata 0xb00, 32) ] ()

let msg_dequeue =
  ipc ~offset:0x2500 ~bytes:1280
    ~loads:[ (Kdata 0xac0, 128) ]
    ~stores:[ (Kdata 0xa80, 64) ] ()

let msg_copyout =
  ipc ~offset:0x2b00 ~bytes:1536
    ~loads:[ (Kdata 0x9c0, 96) ]
    ~stores:[ (Kdata 0x980, 96) ] ()

let receive_path =
  ipc ~offset:0x3200 ~bytes:2048
    ~loads:[ (Kdata 0xb80, 192) ]
    ~stores:[ (Frame 0, 160); (Kdata 0xbc0, 96) ] ()

let mach_msg_exit =
  ipc ~offset:0x3b00 ~bytes:896 ~loads:[ (Frame 0, 192) ] ()

let port_alloc_path =
  ipc ~offset:0x4000 ~bytes:2048
    ~loads:[ (Kdata 0xc00, 128) ]
    ~stores:[ (Kdata 0xc40, 192) ] ()

let port_dealloc_path =
  ipc ~offset:0x4900 ~bytes:1536
    ~loads:[ (Kdata 0xc40, 128) ]
    ~stores:[ (Kdata 0xc00, 96) ] ()

let virtual_copy_per_page =
  ipc ~offset:0x4f00 ~bytes:1216
    ~loads:[ (Kdata 0xc80, 96) ]
    ~stores:[ (Kdata 0xcc0, 96) ] ()

(* --- Execution --------------------------------------------------------- *)

let region_of t = function `Core -> t.text | `Ipc -> t.ipc_text

let resolve t cpu ~frame = function
  | Kdata off -> (
      match t.percpu with
      | None -> t.data.Machine.Layout.base + off
      | Some r -> r.Machine.Layout.base + (Machine.Cpu.id cpu * 4096) + off)
  | Frame off -> frame + off

(* Chunk replay runs on every kernel interaction the simulation models;
   it charges through the CPU's calls alone, so a warm path allocates
   nothing on the host beyond the clock values those charges box. *)

let rec run_loads t cpu frame = function
  | [] -> ()
  | (loc, bytes) :: rest ->
      Machine.Cpu.load cpu ~addr:(resolve t cpu ~frame loc) ~bytes;
      run_loads t cpu frame rest

let rec run_stores t cpu frame = function
  | [] -> ()
  | (loc, bytes) :: rest ->
      Machine.Cpu.store cpu ~addr:(resolve t cpu ~frame loc) ~bytes;
      run_stores t cpu frame rest

let exec_chunk t ~frame c =
  let cpu = t.machine.Machine.cpu in
  Machine.Cpu.fetch cpu (region_of t c.ck_region) ~offset:c.ck_offset
    ~bytes:c.ck_bytes;
  run_loads t cpu frame c.ck_loads;
  run_stores t cpu frame c.ck_stores

let exec1 t ?frame c =
  exec_chunk t ~frame:(Option.value ~default:t.scratch_frame frame) c

let exec t ?frame chunks =
  let frame = Option.value ~default:t.scratch_frame frame in
  List.iter (fun c -> exec_chunk t ~frame c) chunks

let exec_n t ?frame n c =
  let frame = Option.value ~default:t.scratch_frame frame in
  for _ = 1 to Int.max 0 n do
    exec_chunk t ~frame c
  done

let copy t ~src ~dst ~bytes =
  if bytes > 0 then begin
    let cpu = t.machine.Machine.cpu in
    let lines = (bytes + 31) / 32 in
    for i = 0 to lines - 1 do
      let off = i * 32 in
      let n = Int.min 32 (bytes - off) in
      Machine.Cpu.fetch cpu t.text ~offset:copy_loop.ck_offset
        ~bytes:copy_loop.ck_bytes;
      Machine.Cpu.load cpu ~addr:(src + off) ~bytes:n;
      Machine.Cpu.store cpu ~addr:(dst + off) ~bytes:n
    done
  end

(* --- Kernel message buffers -------------------------------------------- *)
(* Two-level allocator over the 64 KB [kernel.msg-buffers] region,
   32-byte granules.  Small frees park on per-size quick lists and are
   handed back LIFO (a recycle); everything else lives in a sorted,
   coalescing extent list served next-fit.  Every handed-out buffer
   satisfies [base <= addr && addr + bytes <= base + size].  Under
   pressure the quick lists are flushed back into the extents; if the
   region is still genuinely exhausted (callers leaked, or sustained
   queueing outran receives) the arena is reset wholesale — outstanding
   buffers alias from then on, which only perturbs cache costing, never
   correctness — and the reset is counted so benchmarks can assert it
   never happens under normal load. *)

let granule = 32

(* Frees at or below this size park on a size-class quick list for LIFO
   reuse instead of going straight back into the extents — the analogue
   of Mach's kmsg zone, which serves small messages from a per-size zone
   and sends large ones to the general allocator.  Message-sized buffers
   dominate IPC traffic, so almost every alloc after warm-up is a
   quick-list hit — counted as a recycle.  Larger buffers (bulk-data
   bounces) keep the roving next-fit behaviour and stay cold in the
   D-cache, as a hardware buffer ring behaves. *)
let quick_max = 512

(* Which CPU's quick list to use: the one executing right now.  On a
   uniprocessor this is always CPU 0, so the key is just the size. *)
let quick_cpu t = Machine.Cpu.id t.machine.Machine.cpu

let buffer_reset t =
  t.buf_free <- [ (0, t.buffers.Machine.Layout.size) ];
  t.buf_next <- 0;
  Hashtbl.reset t.buf_live;
  Hashtbl.reset t.buf_quick;
  t.buf_in_use <- 0;
  match t.kt_checks with
  | None -> ()
  | Some c -> Check.buf_reset c ~space:t.kt_space

(* Next-fit within the sorted extent list: first hole at or after [from]
   that can hold [need] bytes.  The roving pointer makes transient
   buffers cycle through the region (cold in the D-cache, as a hardware
   buffer ring behaves) instead of hammering one warm address. *)
let alloc_from t ~need ~from =
  let rec go acc = function
    | [] -> None
    | (off, sz) :: rest ->
        let start = if off >= from then off else from in
        if start + need <= off + sz then begin
          let acc = if start > off then (off, start - off) :: acc else acc in
          let rest =
            if off + sz > start + need then
              (start + need, off + sz - start - need) :: rest
            else rest
          in
          Some (start, List.rev_append acc rest)
        end
        else go ((off, sz) :: acc) rest
  in
  go [] t.buf_free

(* Coalescing insertion into the sorted extent list. *)
let insert_extent free ~off ~size =
  let rec insert = function
    | [] -> [ (off, size) ]
    | (o, s) :: rest when off + size < o -> (off, size) :: (o, s) :: rest
    | (o, s) :: rest when off + size = o -> (off, size + s) :: rest
    | (o, s) :: rest when o + s = off -> (
        match rest with
        | (o2, s2) :: rest' when off + size = o2 -> (o, s + size + s2) :: rest'
        | _ -> (o, s + size) :: rest)
    | extent :: rest -> extent :: insert rest
  in
  insert free

(* Return every parked quick-list buffer to the extents (coalescing), so
   a large request can claim space the size classes were hoarding. *)
let flush_quick t =
  let any = Hashtbl.length t.buf_quick > 0 in
  Hashtbl.iter
    (fun (_cpu, size) offs ->
      List.iter
        (fun off -> t.buf_free <- insert_extent t.buf_free ~off ~size)
        !offs)
    t.buf_quick;
  Hashtbl.reset t.buf_quick;
  any

let finish_alloc t ~off ~need ~recycled =
  let addr = t.buffers.Machine.Layout.base + off in
  Hashtbl.replace t.buf_live addr need;
  t.buf_allocs <- t.buf_allocs + 1;
  if recycled then t.buf_recycles <- t.buf_recycles + 1;
  t.buf_in_use <- t.buf_in_use + need;
  if t.buf_in_use > t.buf_peak then t.buf_peak <- t.buf_in_use;
  (match t.kt_checks with
  | None -> ()
  | Some c -> Check.buf_allocated c ~space:t.kt_space ~addr ~bytes:need);
  addr

let rec buffer_alloc t ~bytes =
  let size = t.buffers.Machine.Layout.size in
  let need =
    Int.min ((Int.max granule bytes + granule - 1) / granule * granule) size
  in
  let qkey = (quick_cpu t, need) in
  match Hashtbl.find_opt t.buf_quick qkey with
  | Some ({ contents = off :: rest } as offs) ->
      (* size-class hit: LIFO reuse of the most recently freed buffer *)
      offs := rest;
      if rest = [] then Hashtbl.remove t.buf_quick qkey;
      finish_alloc t ~off ~need ~recycled:true
  | _ -> (
      let found =
        match alloc_from t ~need ~from:t.buf_next with
        | Some _ as r -> r
        | None -> alloc_from t ~need ~from:0  (* wrap *)
      in
      match found with
      | Some (off, free') ->
          t.buf_free <- free';
          t.buf_next <- off + need;
          finish_alloc t ~off ~need ~recycled:false
      | None ->
          if flush_quick t then buffer_alloc t ~bytes
          else begin
            t.buf_resets <- t.buf_resets + 1;
            buffer_reset t;
            buffer_alloc t ~bytes
          end)

let buffer_use t addr =
  (* A kernel path is about to read or write [addr]: let the sanitizer
     flag it if the buffer was already released. *)
  match t.kt_checks with
  | None -> ()
  | Some c -> Check.buf_used c ~space:t.kt_space ~addr

let buffer_free t addr =
  (match t.kt_checks with
  | None -> ()
  | Some c -> Check.buf_released c ~space:t.kt_space ~addr);
  match Hashtbl.find_opt t.buf_live addr with
  | None -> ()  (* stale handle from before a reset, or never allocated *)
  | Some size ->
      Hashtbl.remove t.buf_live addr;
      t.buf_frees <- t.buf_frees + 1;
      t.buf_in_use <- t.buf_in_use - size;
      let off = addr - t.buffers.Machine.Layout.base in
      if size <= quick_max then begin
        let qkey = (quick_cpu t, size) in
        match Hashtbl.find_opt t.buf_quick qkey with
        | Some offs -> offs := off :: !offs
        | None -> Hashtbl.replace t.buf_quick qkey (ref [ off ])
      end
      else t.buf_free <- insert_extent t.buf_free ~off ~size

let buffer_stats t =
  {
    bs_allocs = t.buf_allocs;
    bs_frees = t.buf_frees;
    bs_recycles = t.buf_recycles;
    bs_resets = t.buf_resets;
    bs_in_use_bytes = t.buf_in_use;
    bs_peak_bytes = t.buf_peak;
    bs_capacity_bytes = t.buffers.Machine.Layout.size;
  }

let buffer_region t = t.buffers

let exec_in t region ~offset ~bytes =
  Machine.Cpu.fetch t.machine.Machine.cpu region ~offset ~bytes
