(* The WPOS stack the benchmark drives, assembled from the layers' public
   constructors rather than through [Wpos.boot], so that the benchmark
   holds a handle on every layer it measures: the block caches of both
   volumes, the VFS, the file server, the OS/2 personality and the
   netserver.  Every workload boots the same stack. *)

module F = Fileserver

let ncpus = 4

let config = Machine.Config.with_ncpus Machine.Config.ppc604_133 ~n:ncpus

(* Volume placement on the one 20 MB disk.  JFS gets a larger inode table
   than the default 512 so a long churn run never runs out of inodes. *)
let hpfs_start = 0
let jfs_start = 8192
let jfs_inodes = 4096

(* Blocks far above both volumes: never touched by a file system, so a
   block-cache read of one is a guaranteed miss (the peeled replay uses
   them to reproduce a miss). *)
let cold_block_base = 24_576

type t = {
  m : Machine.t;
  k : Mach.Kernel.t;
  sys : Mach.Sched.t;
  vfs : F.Vfs.t;
  hpfs : F.Block_cache.t;
  jfs : F.Block_cache.t;
  fs : F.File_server.t;
  os2 : Personalities.Os2.t;
  net : Netserver.t;
}

let fail_fs what e =
  failwith (Printf.sprintf "%s: %s" what (F.Fs_types.fs_error_to_string e))

let mount vfs ~at = function
  | Ok pfs -> (
      match F.Vfs.mount vfs ~at pfs with
      | Ok () -> ()
      | Error e -> failwith ("mount " ^ at ^ ": " ^ e))
  | Error e -> fail_fs ("mount " ^ at) e

let boot () =
  let m = Machine.create config in
  let boot = Mk_services.Bootstrap.boot m in
  let k = boot.Mk_services.Bootstrap.kernel in
  let disk = m.Machine.disk in
  F.Hpfs.mkfs disk ~start:hpfs_start ();
  F.Extfs.mkfs disk F.Jfs.config ~start:jfs_start ~inodes:jfs_inodes ();
  let vfs = F.Vfs.create ~kernel:k () in
  let hpfs = F.Block_cache.create k disk () in
  let jfs = F.Block_cache.create k disk () in
  mount vfs ~at:"/os2" (F.Hpfs.mount hpfs ~start:hpfs_start ());
  mount vfs ~at:"/jfs" (F.Jfs.mount jfs ~start:jfs_start ());
  let fs = F.File_server.start k boot.Mk_services.Bootstrap.runtime vfs () in
  let os2 =
    Personalities.Os2.start k boot.Mk_services.Bootstrap.runtime fs
      ?name_service:boot.Mk_services.Bootstrap.name_service ()
  in
  let net = Netserver.create k ~style:Finegrain.Fine_grained in
  { m; k; sys = k.Mach.Kernel.sys; vfs; hpfs; jfs; fs; os2; net }

let cpu_now t cpu = Machine.Cpu.now (Machine.nth_cpu t.m cpu)

(* Line every CPU up at the machine's wall clock, so a measured phase
   starts with no CPU still working off the previous phase's time. *)
let sync_clocks t =
  let now = Machine.global_now t.m in
  Array.iter (fun c -> Machine.Cpu.advance_to c now) t.m.Machine.cpus;
  now

let spawn t task ~name ~cpu body =
  ignore
    (Mach.Kernel.thread_spawn t.k task ~name ~affinity:cpu ~bound:true body
      : Mach.Ktypes.thread)

(* --- public counters, snapshotted at phase boundaries -------------------- *)

type counters = {
  c_wall : int;
  c_perf : Machine.Perf.snapshot array;  (* per CPU *)
  c_bus_stall : int;
  c_coherence : int;
  c_ipis : int;
  c_xmsgs : int;
  c_steals : int;
  c_switches : int;
  c_fs_requests : int;
  c_ncache : F.Namecache.stats;
  c_bc_hits : int;
  c_bc_misses : int;
  c_bc_writebacks : int;
  c_journal : int;
  c_disk : int;
  c_kbuf_allocs : int;
  c_kbuf_recycles : int;
  c_net_delivered : int array;
  c_net_batches : int array;
  c_vcalls : int;
  c_minor_words : float;
}

let sum_perf t f =
  Array.fold_left (fun acc c -> acc + f (Machine.Cpu.perf c)) 0 t.m.Machine.cpus

let counters t =
  let kb = Mach.Ktext.buffer_stats t.k.Mach.Kernel.ktext in
  {
    c_wall = Machine.global_now t.m;
    c_perf =
      Array.map (fun c -> Machine.Perf.snapshot (Machine.Cpu.perf c))
        t.m.Machine.cpus;
    c_bus_stall = sum_perf t Machine.Perf.bus_stall_cycles;
    c_coherence = sum_perf t Machine.Perf.coherence_misses;
    c_ipis = sum_perf t Machine.Perf.ipis_sent;
    c_xmsgs = Mach.Sched.total_xmsgs t.sys;
    c_steals = Mach.Sched.total_steals t.sys;
    c_switches = t.sys.Mach.Sched.switches;
    c_fs_requests = F.File_server.requests_served t.fs;
    c_ncache = F.Vfs.cache_stats t.vfs;
    c_bc_hits = F.Block_cache.hits t.hpfs + F.Block_cache.hits t.jfs;
    c_bc_misses = F.Block_cache.misses t.hpfs + F.Block_cache.misses t.jfs;
    c_bc_writebacks =
      F.Block_cache.writebacks t.hpfs + F.Block_cache.writebacks t.jfs;
    c_journal = F.Extfs.journal_writes t.jfs;
    c_disk = Machine.Disk.requests_served t.m.Machine.disk;
    c_kbuf_allocs = kb.Mach.Ktext.bs_allocs;
    c_kbuf_recycles = kb.Mach.Ktext.bs_recycles;
    c_net_delivered = Netserver.shard_delivered t.net;
    c_net_batches = Netserver.shard_batches t.net;
    c_vcalls = Finegrain.vcalls (Netserver.objects t.net);
    c_minor_words = (Gc.quick_stat ()).Gc.minor_words;
  }

(* Per-layer counter metrics over one phase, per workload op. *)
let layer_counters ~ops (a : counters) (b : counters) =
  let per x = if ops = 0 then 0.0 else float_of_int x /. float_of_int ops in
  let ratio n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d in
  let d = Array.map2 (fun x y -> Machine.Perf.diff y x) a.c_perf b.c_perf in
  let tot f = Array.fold_left (fun acc s -> acc + f s) 0 d in
  let instr = tot (fun s -> s.Machine.Perf.instructions) in
  let busiest =
    Array.fold_left (fun m s -> max m s.Machine.Perf.instructions) 0 d
  in
  let na = a.c_ncache and nb = b.c_ncache in
  let nhits =
    nb.F.Namecache.cs_hits + nb.F.Namecache.cs_neg_hits
    - na.F.Namecache.cs_hits - na.F.Namecache.cs_neg_hits
  in
  let nmiss = nb.F.Namecache.cs_misses - na.F.Namecache.cs_misses in
  let bhits = b.c_bc_hits - a.c_bc_hits and bmiss = b.c_bc_misses - a.c_bc_misses in
  let delivered = Array.map2 ( - ) b.c_net_delivered a.c_net_delivered in
  let batches = Array.map2 ( - ) b.c_net_batches a.c_net_batches in
  let pkts = Array.fold_left ( + ) 0 delivered in
  let fairness =
    if pkts = 0 then 0.0
    else
      float_of_int (Array.fold_left max 0 delivered)
      /. (float_of_int pkts /. float_of_int (Array.length delivered))
  in
  [
    ("file_server.requests_per_op", per (b.c_fs_requests - a.c_fs_requests));
    ("mach.as_switches_per_op", per (tot (fun s -> s.Machine.Perf.address_space_switches)));
    ("mach.ctx_switches_per_op", per (b.c_switches - a.c_switches));
    ("machine.icache_misses_per_op", per (tot (fun s -> s.Machine.Perf.icache_misses)));
    ("machine.tlb_misses_per_op", per (tot (fun s -> s.Machine.Perf.tlb_misses)));
    ("machine.cpi", ratio (tot (fun s -> s.Machine.Perf.cycles)) instr);
    ("machine.busiest_cpu_instr_share", ratio busiest instr);
    ("machine.bus_stall_cycles_per_op", per (b.c_bus_stall - a.c_bus_stall));
    ("machine.coherence_misses_per_op", per (b.c_coherence - a.c_coherence));
    ("mach.ipis_per_op", per (b.c_ipis - a.c_ipis));
    ("mach.xmsgs_per_op", per (b.c_xmsgs - a.c_xmsgs));
    ("mach.steals_per_op", per (b.c_steals - a.c_steals));
    ("vfs.ncache_hit_ratio", ratio nhits (nhits + nmiss));
    ( "vfs.ncache_invalidations_per_op",
      per (nb.F.Namecache.cs_invalidations - na.F.Namecache.cs_invalidations) );
    ("block_cache.hit_ratio", ratio bhits (bhits + bmiss));
    ("block_cache.writebacks_per_op", per (b.c_bc_writebacks - a.c_bc_writebacks));
    ("journal.records_per_op", per (b.c_journal - a.c_journal));
    ("machine.disk_requests_per_op", per (b.c_disk - a.c_disk));
    ("netserver.pkts_per_batch", ratio pkts (Array.fold_left ( + ) 0 batches));
    ("netserver.shard_fairness", fairness);
    ("finegrain.vcalls_per_pkt", ratio (b.c_vcalls - a.c_vcalls) pkts);
    ( "mach.kbuf_recycle_ratio",
      ratio (b.c_kbuf_recycles - a.c_kbuf_recycles) (b.c_kbuf_allocs - a.c_kbuf_allocs) );
  ]

(* Host allocation per op: a host metric, kept out of the simulated set. *)
let minor_words_per_op ~ops (a : counters) (b : counters) =
  if ops = 0 then 0.0 else (b.c_minor_words -. a.c_minor_words) /. float_of_int ops
