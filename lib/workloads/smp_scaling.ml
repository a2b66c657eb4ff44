(* The smp-scaling experiment: the same workloads driven at 1, 2, 4 and
   8 simulated CPUs, measuring how aggregate throughput bends as the
   shared bus saturates and how the placement policy moves the cross-CPU
   traffic.

   Two workloads:
   - [ipc]: the ipc-stress round-trip engine (IBM RPC transport), eight
     client/server pairs, under three placements:
       colocated  — each pair homed on one CPU (pair k on CPU k mod n):
                    no cross-CPU wakeups, contention is bus-only;
       crossed    — client and server of every pair on different CPUs:
                    every round trip is two LWKT wake messages + IPIs;
       unbalanced — everything spawned on CPU 0, unbound: idle CPUs pull
                    work over by stealing, after which the stolen
                    client's server wakes it cross-CPU.
   - [fileserver]: the E1-style edit-session workload against the HPFS
     file server; one serve thread bound to each CPU, boot services on
     the boot CPU, clients spread round-robin.  Every request takes the
     volume's one mount lock, and the points count the lock's waits and
     waited cycles next to the disk requests, splitting the idle time
     between lock wait and disk wait.

   Every point boots a fresh machine, so points are independent and the
   1-CPU column doubles as a regression anchor against the uniprocessor
   scheduler. *)

open Mach.Ktypes
module F = Fileserver

type placement = Colocated | Crossed | Unbalanced

let placement_name = function
  | Colocated -> "colocated"
  | Crossed -> "crossed"
  | Unbalanced -> "unbalanced"

type point = {
  sp_workload : string;  (* "ipc" or "fileserver" *)
  sp_placement : string;
  sp_ncpus : int;
  sp_ops : int;
  sp_wall_cycles : int;  (* furthest-ahead CPU clock at completion *)
  sp_throughput : float;  (* ops per million cycles of wall clock *)
  sp_speedup : float;  (* vs the 1-CPU point of the same series *)
  sp_ipis : int;
  sp_xmsgs : int;  (* cross-CPU scheduler messages delivered *)
  sp_steals : int;
  sp_coherence_misses : int;
  sp_bus_stall_cycles : int;
  sp_bus_transactions : int;
  sp_idle_cycles : int;  (* wall x ncpus minus every CPU's charged cycles *)
  sp_disk_requests : int;
  sp_lock_waits : int;  (* fileserver: mount-lock acquires that waited *)
  sp_lock_wait_cycles : int;  (* fileserver: cycles those acquires waited *)
  sp_shared_holds : int;  (* fileserver: mount-lock holds taken shared *)
  sp_crossed_calls : int;  (* fileserver: calls served off their CPU *)
}

type result = {
  r_cpus : int list;
  r_pairs : int;
  r_iters : int;
  r_bytes : int;
  r_clients : int;
  r_sessions : int;
  r_points : point list;
  r_state : Machine.Config.machine_state list;
      (* per-CPU machine-state bytes at each CPU count (density) *)
}

(* Sum an SMP counter over every CPU of the machine. *)
let sum_cpus m f =
  let acc = ref 0 in
  for i = 0 to Machine.ncpus m - 1 do
    acc := !acc + f (Machine.Cpu.perf (Machine.nth_cpu m i))
  done;
  !acc

let finish ~workload ~placement ~ncpus ~ops m sys =
  let wall = Machine.global_now m in
  {
    sp_workload = workload;
    sp_placement = placement;
    sp_ncpus = ncpus;
    sp_ops = ops;
    sp_wall_cycles = wall;
    sp_throughput =
      (if wall = 0 then 0.0 else float_of_int ops /. float_of_int wall *. 1e6);
    sp_speedup = 0.0;  (* filled in once the 1-CPU anchor is known *)
    sp_ipis = sum_cpus m Machine.Perf.ipis_sent;
    sp_xmsgs = Mach.Sched.total_xmsgs sys;
    sp_steals = Mach.Sched.total_steals sys;
    sp_coherence_misses = sum_cpus m Machine.Perf.coherence_misses;
    sp_bus_stall_cycles = sum_cpus m Machine.Perf.bus_stall_cycles;
    sp_bus_transactions = Machine.Bus.transactions m.Machine.bus;
    sp_idle_cycles = (wall * Machine.ncpus m) - sum_cpus m Machine.Perf.cycles;
    sp_disk_requests = Machine.Disk.requests_served m.Machine.disk;
    sp_lock_waits = 0;
    sp_lock_wait_cycles = 0;
    sp_shared_holds = 0;
    sp_crossed_calls = 0;
  }

(* --- workload 1: RPC round-trip pairs ---------------------------------- *)

let measure_ipc ~ncpus ~placement ~pairs ~iters ~bytes =
  let m = Machine.create (Rig.config ~ncpus) in
  let k = Mach.Kernel.boot m in
  let sys = k.Mach.Kernel.sys in
  for w = 0 to pairs - 1 do
    let client_cpu, server_cpu, bound =
      match placement with
      | Colocated -> (w mod ncpus, w mod ncpus, true)
      | Crossed -> (w mod ncpus, (w + 1) mod ncpus, true)
      | Unbalanced -> (0, 0, false)
    in
    let client =
      Mach.Kernel.task_create k ~name:(Printf.sprintf "client%d" w) ()
    in
    let server =
      Mach.Kernel.task_create k ~name:(Printf.sprintf "server%d" w) ()
    in
    let port = Mach.Port.allocate sys ~receiver:server ~name:"svc" in
    ignore
      (Mach.Kernel.thread_spawn k server ~name:"srv" ~affinity:server_cpu
         ~bound
         (fun () -> Mach.Rpc.serve sys port (fun _msg -> simple_message ()))
        : thread);
    ignore
      (Mach.Kernel.thread_spawn k client ~name:"cl" ~affinity:client_cpu
         ~bound
         (fun () ->
           for _ = 1 to iters do
             ignore
               (Mach.Rpc.call sys port
                  (simple_message ~inline_bytes:bytes ()))
           done;
           Mach.Port.destroy sys port)
        : thread)
  done;
  Mach.Kernel.run k;
  finish ~workload:"ipc" ~placement:(placement_name placement) ~ncpus
    ~ops:(pairs * iters) m sys

(* --- workload 2: file-server edit sessions ------------------------------ *)

let measure_fileserver ~ncpus ~clients ~sessions =
  let m = Machine.create (Rig.config ~ncpus) in
  let boot = Mk_services.Bootstrap.boot m in
  let k = boot.Mk_services.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let runtime = boot.Mk_services.Bootstrap.runtime in
  let disk = m.Machine.disk in
  let vfs = F.Vfs.create () in
  ignore (Rig.mount_hpfs k disk vfs : F.Block_cache.t);
  (* one serve thread per CPU; clients spread round-robin *)
  let fs = F.File_server.start k runtime vfs () in
  let sem = F.Vfs.os2_semantics in
  let completed = ref 0 in
  for c = 0 to clients - 1 do
    let cpu = c mod ncpus in
    let client =
      Mach.Kernel.task_create k ~name:(Printf.sprintf "editor%d" c) ()
    in
    ignore
      (Mach.Kernel.thread_spawn k client ~name:"edit" ~affinity:cpu ~bound:true
         (fun () ->
           for s = 1 to sessions do
             let path = Printf.sprintf "/os2/c%d_s%d.dat" c s in
             match Rig.edit_session fs sem ~path ~fill:'e' ~reads:1 with
             | Ok () -> incr completed
             | Error _ -> ()
           done)
        : thread)
  done;
  Mach.Kernel.run k;
  if !completed <> clients * sessions then
    failwith
      (Printf.sprintf "Smp_scaling: fileserver completed %d/%d sessions"
         !completed (clients * sessions));
  let locks = List.map snd (F.Vfs.mount_lock_stats vfs) in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 locks in
  {
    (finish ~workload:"fileserver" ~placement:"spread" ~ncpus
       ~ops:(clients * sessions) m sys)
    with
    sp_lock_waits = sum (fun l -> l.Mach.Sync.ls_waits);
    sp_lock_wait_cycles = sum (fun l -> l.Mach.Sync.ls_wait_cycles);
    sp_shared_holds = sum (fun l -> l.Mach.Sync.ls_shared);
    sp_crossed_calls = Mach.Rpc.served_crossed (F.File_server.port fs);
  }

(* --- sweep --------------------------------------------------------------- *)

let default_cpus = [ 1; 2; 4; 8 ]

(* a series shares one (workload, placement) key *)
let with_speedups =
  Rig.with_speedups
    ~series:(fun p -> (p.sp_workload, p.sp_placement))
    ~ncpus:(fun p -> p.sp_ncpus)
    ~throughput:(fun p -> p.sp_throughput)
    ~set:(fun p x -> { p with sp_speedup = x })

let run ?(cpus = default_cpus) ?(pairs = 8) ?(iters = 150) ?(bytes = 512)
    ?(clients = 6) ?(sessions = 4) () =
  if cpus = [] then invalid_arg "Smp_scaling.run: empty CPU list";
  List.iter
    (fun n -> if n < 1 then invalid_arg "Smp_scaling.run: ncpus must be >= 1")
    cpus;
  let points =
    List.concat_map
      (fun ncpus ->
        [
          measure_ipc ~ncpus ~placement:Colocated ~pairs ~iters ~bytes;
          measure_ipc ~ncpus ~placement:Crossed ~pairs ~iters ~bytes;
          measure_ipc ~ncpus ~placement:Unbalanced ~pairs ~iters ~bytes;
          measure_fileserver ~ncpus ~clients ~sessions;
        ])
      cpus
  in
  {
    r_cpus = cpus;
    r_pairs = pairs;
    r_iters = iters;
    r_bytes = bytes;
    r_clients = clients;
    r_sessions = sessions;
    r_points = with_speedups points;
    r_state =
      List.map
        (fun n -> Machine.Config.machine_state (Rig.config ~ncpus:n))
        cpus;
  }

(* The headline acceptance number: colocated ipc speedup at [n] CPUs. *)
let ipc_speedup r ~ncpus =
  match
    List.find_opt
      (fun pt ->
        pt.sp_workload = "ipc" && pt.sp_placement = "colocated"
        && pt.sp_ncpus = ncpus)
      r.r_points
  with
  | Some pt -> pt.sp_speedup
  | None -> 0.0

let to_json r =
  let open Bench_json in
  let state (ms : Machine.Config.machine_state) =
    let open Machine.Config in
    Obj
      [ ("ncpus", int ms.ms_ncpus);
        ("cache_bytes_per_cpu", int ms.ms_cache_bytes_per_cpu);
        ("tlb_bytes_per_cpu", int ms.ms_tlb_bytes_per_cpu);
        ("bus_directory_bytes", int ms.ms_bus_directory_bytes);
        ("total_bytes", int ms.ms_total_bytes) ]
  in
  let point p =
    (* the lock leaves exist only where a file server runs *)
    let lock =
      if p.sp_workload = "fileserver" then
        [ ("mount_lock_waits", int p.sp_lock_waits);
          ("mount_lock_wait_cycles", int p.sp_lock_wait_cycles);
          ("shared_holds", int p.sp_shared_holds);
          ("crossed_calls", int p.sp_crossed_calls) ]
      else []
    in
    Obj
      ([ ("workload", Str p.sp_workload); ("placement", Str p.sp_placement);
         ("ncpus", int p.sp_ncpus); ("ops", int p.sp_ops);
         ("wall_cycles", int p.sp_wall_cycles);
         ("throughput_ops_per_mcycle", fixed 3 p.sp_throughput);
         ("speedup", fixed 3 p.sp_speedup); ("ipis", int p.sp_ipis);
         ("xmsgs", int p.sp_xmsgs); ("steals", int p.sp_steals);
         ("coherence_misses", int p.sp_coherence_misses);
         ("bus_stall_cycles", int p.sp_bus_stall_cycles);
         ("bus_transactions", int p.sp_bus_transactions);
         ("idle_cycles", int p.sp_idle_cycles);
         ("disk_requests", int p.sp_disk_requests) ]
      @ lock)
  in
  Obj
    [ ("cpus", Arr (List.map int r.r_cpus));
      ( "ipc",
        Obj
          [ ("pairs", int r.r_pairs); ("iters", int r.r_iters);
            ("bytes", int r.r_bytes) ] );
      ( "fileserver",
        Obj [ ("clients", int r.r_clients); ("sessions", int r.r_sessions) ] );
      ("machine_state", Arr (List.map state r.r_state));
      ("results", Arr (List.map point r.r_points)) ]
