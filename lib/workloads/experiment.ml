(* The experiment table: every table and figure of the paper plus the
   stress workloads.  Each entry runs at two scales and returns its
   result as JSON, its acceptance gates and its Machcheck report; the
   bench driver prints, writes and gates them, and the tests iterate the
   same list. *)

module J = Bench_json

type scale = Smoke | Full

type outcome = {
  json : J.t;
  gates : (string * bool) list;
  check : Check.report option;
}

type t = {
  name : string;
  file : string option;
  run : ?checks:bool -> scale -> outcome;
}

let gate fmt = Printf.ksprintf (fun name ok -> (name, ok)) fmt

(* --- E1: Table 1 ---------------------------------------------------------- *)

let paper_table1 =
  [ ("File Intensive 1", 2.96); ("File Intensive 2", 2.97);
    ("Graphics Low", 0.91); ("Graphics Medium", 0.87); ("Graphics High", 0.71);
    ("PM Tasking Medium", 0.82); ("PM Tasking High", 1.02) ]

let table1 () =
  let wpos () = Api.of_wpos (Wpos.boot ()) in
  (* OS/2 Warp on a 16 MB Pentium *)
  let native () =
    let m = Machine.create Machine.Config.pentium_133 in
    Api.of_monolithic (Monolithic.boot m ~fs_format:`Hpfs ())
  in
  let rows =
    List.map
      (fun spec ->
        (spec, Table1.compare_systems ~wpos:(wpos ()) ~native:(native ()) spec))
      Table1.all
  in
  let row ((spec : Table1.spec), (row : Table1.row)) =
    J.Obj
      [ ("test", J.Str row.row_id); ("app", J.Str spec.app);
        ("wpos_cycles", J.int row.wpos_cycles);
        ("native_cycles", J.int row.native_cycles);
        ("ratio", J.fixed 2 row.ratio);
        ("paper", J.Num (List.assoc spec.id paper_table1)) ]
  in
  J.Obj
    [ ("rows", J.Arr (List.map row rows));
      ("overall", J.fixed 2 (Table1.overall (List.map snd rows)));
      ("paper_overall", J.Num 1.21) ]

(* --- E2: Table 2 ---------------------------------------------------------- *)

let table2 () =
  let trap, rpc = Micro.table2 () in
  let row op cells =
    J.Obj
      (("op", J.Str op)
      :: List.combine
           [ "instructions"; "cycles"; "bus_cycles"; "cpi"; "icache_misses";
             "tlb_misses" ]
           cells)
  in
  let measured (r : Micro.table2_row) =
    row r.t2_label
      [ J.fixed 0 r.t2_instructions; J.fixed 0 r.t2_cycles;
        J.fixed 0 r.t2_bus_cycles; J.fixed 2 r.t2_cpi;
        J.fixed 1 r.t2_icache_misses; J.fixed 1 r.t2_tlb_misses ]
  in
  let ratio (f : Micro.table2_row -> float) = J.fixed 2 (f rpc /. f trap) in
  let paper op l =
    row op (List.map (fun x -> J.Num x) l @ [ J.Null; J.Null ])
  in
  J.Obj
    [ ( "rows",
        J.Arr
          [ measured trap; measured rpc;
            row "ratio"
              [ ratio (fun r -> r.t2_instructions);
                ratio (fun r -> r.t2_cycles); ratio (fun r -> r.t2_bus_cycles);
                ratio (fun r -> r.t2_cpi); J.Null; J.Null ];
            paper "paper trap" [ 465.; 970.; 218.; 2.0 ];
            paper "paper RPC" [ 1317.; 5163.; 1849.; 3.9 ];
            paper "paper ratio" [ 2.83; 5.32; 8.48; 1.95 ] ] ) ]

(* --- E4: Figure 1 --------------------------------------------------------- *)

let figure1 () =
  let w = Wpos.boot () in
  (* put some personality applications on top so the top layer is live *)
  let api = Api.of_wpos w in
  api.Api.spawn ~name:"works.exe" (fun api -> api.Api.compute ~units:10);
  api.Api.spawn ~name:"klondike.exe" (fun api ->
      api.Api.draw ~x:10 ~y:10 ~w:71 ~h:96);
  (match w.Wpos.mvm with
  | Some mvm ->
      let vdm = Personalities.Mvm.create_vdm mvm ~name:"dos-box" in
      Personalities.Mvm.spawn_program mvm vdm ~name:"autoexec"
        [ Personalities.Mvm.G_compute 2000; Personalities.Mvm.G_io_port 0x3f8 ]
  | None -> ());
  Wpos.run w;
  (* name-space view of the same structure *)
  let db = Mk_services.Name_service.db (Wpos.name_service w) in
  let children path =
    J.Str (String.concat ", " (Mk_services.Name_db.list_children db ~path))
  in
  J.Obj
    [ ("figure", J.Str (Format.asprintf "%a" Wpos.pp_figure1 w));
      ("servers", children "/servers"); ("volumes", children "/volumes") ]

(* --- E5: the factor of 3 -------------------------------------------------- *)

let fileserver_factor () =
  let f = Micro.fileserver_factor () in
  J.Obj
    [ ("rpc_cycles_per_op", J.fixed 0 f.Micro.fx_rpc_cycles_per_op);
      ("trap_cycles_per_op", J.fixed 0 f.Micro.fx_trap_cycles_per_op);
      ("factor", J.fixed 2 f.Micro.fx_factor);
      ("paper", J.Str "about a factor of 3") ]

(* --- E6: fine-grained objects --------------------------------------------- *)

let finegrain () =
  let run style =
    let m = Machine.create Machine.Config.pentium_133 in
    let k = Mach.Kernel.boot m in
    let net = Netserver.create k ~style in
    let app = Mach.Kernel.task_create k ~name:"app" () in
    let echo = Mach.Kernel.task_create k ~name:"echo" () in
    let datagrams = 200 in
    let cycles = ref 0 in
    ignore
      (Mach.Kernel.thread_spawn k echo ~name:"echo" (fun () ->
           match Netserver.udp_socket net ~port:7 with
           | Error e -> failwith e
           | Ok s ->
               for _ = 1 to datagrams do
                 let src, bytes = Netserver.udp_recv net s in
                 Netserver.udp_send net s ~dst_port:src ~bytes
               done)
        : Mach.Ktypes.thread);
    ignore
      (Mach.Kernel.thread_spawn k app ~name:"client" (fun () ->
           match Netserver.udp_socket net ~port:2000 with
           | Error e -> failwith e
           | Ok s ->
               let t0 = Machine.now m in
               for _ = 1 to datagrams do
                 Netserver.udp_send net s ~dst_port:7 ~bytes:256;
                 ignore (Netserver.udp_recv net s)
               done;
               cycles := (Machine.now m - t0) / datagrams)
        : Mach.Ktypes.thread);
    Mach.Kernel.run k;
    ( !cycles,
      Finegrain.vcalls (Netserver.objects net),
      Finegrain.memory_footprint_bytes (Netserver.objects net) )
  in
  let fc, fv, fm = run Finegrain.Fine_grained in
  let cc, cv, cm = run Finegrain.Coarse in
  let row style c v m =
    J.Obj
      [ ("style", J.Str style); ("cycles_per_datagram", J.int c);
        ("dispatches", J.int v); ("runtime_bytes", J.int m) ]
  in
  let ratio a b = float_of_int a /. float_of_int b in
  J.Obj
    [ ( "rows",
        J.Arr
          [ row "fine-grained (shipped)" fc fv fm;
            row "coarse (MK++ style)" cc cv cm ] );
      ("slowdown", J.fixed 2 (ratio fc cc));
      ("dispatch_inflation", J.fixed 1 (ratio fv cv));
      ("memory_inflation", J.fixed 1 (ratio fm cm));
      ( "paper",
        J.Str
          "a very large number of very short virtual methods ... slowed the \
           system down ... C++ runtimes ... consumed considerable amounts of \
           memory" ) ]

(* --- E7: two memory managers ---------------------------------------------- *)

let memfootprint () =
  let m = Machine.create Machine.Config.ppc604_133 in
  let services = Mk_services.Bootstrap.boot m in
  let k = services.Mk_services.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  (* the same allocation trace both ways: a spread of object sizes, only
     half of each object ever touched *)
  let trace = List.init 40 (fun i -> 700 + (i * 1337 mod 20000)) in
  let os2_task = Mach.Kernel.task_create k ~name:"os2app" () in
  let os2_mem = Personalities.Os2_memory.create k os2_task in
  let lazy_task = Mach.Kernel.task_create k ~name:"pnapp" () in
  let done_ = ref false in
  ignore
    (Mach.Kernel.thread_spawn k lazy_task ~name:"driver" (fun () ->
         List.iter
           (fun bytes ->
             (* OS/2 path: committed eagerly, byte bookkeeping on top *)
             (match Personalities.Os2_memory.dos_alloc_mem os2_mem ~bytes with
             | Ok addr ->
                 Mach.Vm.touch sys os2_task ~addr ~write:true
                   ~bytes:(max 1 (bytes / 2)) ()
             | Error _ -> ());
             (* kernel-lazy path: pages appear only when touched *)
             let addr = Mach.Vm.allocate sys lazy_task ~bytes () in
             Mach.Vm.touch sys lazy_task ~addr ~write:true
               ~bytes:(max 1 (bytes / 2)) ())
           trace;
         done_ := true)
      : Mach.Ktypes.thread);
  Mach.Kernel.run k;
  assert !done_;
  let os2_bytes =
    Personalities.Os2_memory.os2_committed_bytes os2_mem
    + Personalities.Os2_memory.bookkeeping_bytes os2_mem
  in
  let lazy_bytes = Mach.Vm.committed_bytes lazy_task in
  J.Obj
    [ ("requested_bytes", J.int (List.fold_left ( + ) 0 trace));
      ("kernel_lazy_resident_bytes", J.int lazy_bytes);
      ("os2_committed_bytes", J.int os2_bytes);
      ( "footprint_inflation",
        J.fixed 2 (float_of_int os2_bytes /. float_of_int lazy_bytes) );
      ("paper", J.Str "greatly increased the memory footprint") ]

(* --- E8: driver architectures --------------------------------------------- *)

let drivers () =
  let run arch =
    let m = Machine.create Machine.Config.pentium_133 in
    let k = Mach.Kernel.boot m in
    let rm = Drivers.Resource_manager.create k in
    let d =
      match Drivers.Disk_driver.start k rm ~arch with
      | Ok d -> d
      | Error e -> failwith e
    in
    let app = Mach.Kernel.task_create k ~name:"app" () in
    let requests = 50 in
    let cycles = ref 0 in
    ignore
      (Mach.Kernel.thread_spawn k app ~name:"reader" (fun () ->
           ignore (Drivers.Disk_driver.read_blocks d ~block:0 ~count:4);
           let t0 = Machine.now m in
           for i = 1 to requests do
             ignore
               (Drivers.Disk_driver.read_blocks d ~block:(i * 8 mod 1024)
                  ~count:4)
           done;
           cycles := (Machine.now m - t0) / requests)
        : Mach.Ktypes.thread);
    Mach.Kernel.run k;
    (!cycles, Drivers.Disk_driver.interrupts_taken d)
  in
  let uc, ui = run Drivers.Disk_driver.User_level in
  let kc, ki = run Drivers.Disk_driver.Kernel_bsd in
  let oc, oi = run Drivers.Disk_driver.Ooddm in
  (* elapsed time is dominated by media time; the architecture shows in
     the CPU overhead beyond it *)
  let g = Machine.Disk.default_geometry in
  let media =
    g.Machine.Disk.seek_cycles + (4 * g.Machine.Disk.transfer_cycles_per_block)
  in
  let row arch c i =
    J.Obj
      [ ("arch", J.Str arch); ("cycles_per_request", J.int c);
        ("interrupts", J.int i); ("cpu_overhead", J.int (c - media)) ]
  in
  let vs_kernel c =
    J.fixed 2 (float_of_int (c - media) /. float_of_int (kc - media))
  in
  J.Obj
    [ ( "rows",
        J.Arr
          [ row "user-level (initial)" uc ui; row "in-kernel BSD-style" kc ki;
            row "OODDM (fine objects)" oc oi ] );
      ("user_level_overhead_vs_kernel", vs_kernel uc);
      ("ooddm_overhead_vs_kernel", vs_kernel oc);
      ("media_cycles_per_request", J.int media) ]

(* --- E9: naming ----------------------------------------------------------- *)

(* Cycles per lookup of one of 20 names registered on a freshly booted
   [naming] configuration. *)
let lookup_cost ?naming ~register ~lookup () =
  let ops = 200 in
  let m = Machine.create Machine.Config.pentium_133 in
  let b = Mk_services.Bootstrap.boot ?naming m in
  let k = b.Mk_services.Bootstrap.kernel in
  let app = Mach.Kernel.task_create k ~name:"app" () in
  let cycles = ref 0 in
  ignore
    (Mach.Kernel.thread_spawn k app ~name:"app" (fun () ->
         let p = Mach.Port.allocate k.Mach.Kernel.sys ~receiver:app ~name:"p" in
         for i = 1 to 20 do
           register b i p
         done;
         let t0 = Machine.now m in
         for i = 1 to ops do
           lookup b ((i mod 20) + 1)
         done;
         cycles := (Machine.now m - t0) / ops)
      : Mach.Ktypes.thread);
  Mach.Kernel.run k;
  !cycles

let nameservice () =
  let module B = Mk_services.Bootstrap in
  let x500 =
    let path i = Printf.sprintf "/servers/devices/dev%02d" i in
    lookup_cost
      ~register:(fun b i p ->
        ignore
          (Mk_services.Name_service.bind (B.name_service_exn b) ~path:(path i)
             ~attributes:[ ("class", "char") ] ~target:p ()))
      ~lookup:(fun b i ->
        ignore
          (Mk_services.Name_service.resolve_port (B.name_service_exn b)
             ~path:(path i)))
      ()
  in
  let simple =
    let names b = Option.get b.B.simple_names in
    let name i = Printf.sprintf "dev%02d" i in
    lookup_cost ~naming:B.Simple_naming
      ~register:(fun b i p ->
        ignore (Mk_services.Name_simple.register (names b) ~name:(name i) p))
      ~lookup:(fun b i ->
        ignore (Mk_services.Name_simple.lookup (names b) ~name:(name i)))
      ()
  in
  J.Obj
    [ ("x500_cycles_per_lookup", J.int x500);
      ("simple_cycles_per_lookup", J.int simple);
      ("ratio", J.fixed 1 (float_of_int x500 /. float_of_int simple));
      ("note", J.Str "why Release 2 added the simple name service") ]

(* --- the stress workloads ------------------------------------------------- *)

let zero what n = gate "%s %d = 0" what n (n = 0)

let ipc_stress = function
  | Full -> Ipc_stress.run ()
  | Smoke -> Ipc_stress.run ~workers:1 ~iters:3 ~sizes:[ 0; 4096 ] ()

let ipc_gates r =
  let e3 = List.map snd (Ipc_stress.improvement r) in
  let lo = List.fold_left min infinity e3 and hi = List.fold_left max 0. e3 in
  [ gate "E3 improvement %.2f-%.2fx within the paper's 2-10x" lo hi
      (lo >= 2.0 && hi <= 10.0);
    gate "E3 improvement falls with size"
      (List.hd e3 > List.nth e3 (List.length e3 - 1)) ]

(* enough ops that the full sweep's crash points cross partial
   checkpoints of the default volume's 256-slot ring *)
let sweep_ops = 64

let recovery_sweep = function
  | Full -> Recovery_sweep.run ~ops:sweep_ops ~max_points:1024 ()
  | Smoke -> Recovery_sweep.run ~ops:4 ~max_points:12 ~series:[ 4 ] ()

let recovery_gates (r : Recovery_sweep.result) =
  [ zero "lost acknowledged writes" r.r_lost_writes;
    zero "torn recovered states" r.r_torn_states ]
  @
  if r.r_ops >= sweep_ops then
    [ gate "every write a crash point" r.r_exhaustive;
      gate "partial checkpoints crossed %d >= 2" r.r_checkpoints
        (r.r_checkpoints >= 2) ]
  else []

let smp_scaling = function
  | Full -> Smp_scaling.run ()
  | Smoke ->
      Smp_scaling.run ~cpus:[ 1; 2 ] ~pairs:2 ~iters:5 ~bytes:256 ~clients:2
        ~sessions:1 ()

let smp_gates r =
  let x = Smp_scaling.ipc_speedup r ~ncpus:4 in
  if List.mem 4 r.Smp_scaling.r_cpus then
    [ gate "colocated ipc speedup at 4 CPUs %.2fx > 1.50x" x (x > 1.5) ]
  else []

let vfs_walk = function
  | Full -> Vfs_walk.run ()
  | Smoke -> Vfs_walk.run ~depth:5 ~files:6 ~repeats:2 ~cpus:2 ()

let vfs_gates (r : Vfs_walk.result) =
  let hot = r.r_hot_hit_rate and deep = r.r_deep_speedup in
  [ gate "hot hit rate %.3f >= 0.90" hot (hot >= 0.9);
    gate "deep path cached %.2fx >= 2x" deep (deep >= 2.0);
    gate "concurrent lookups %d/%d ok" r.r_concurrent_ok
      r.r_concurrent_expected
      (r.r_concurrent_ok = r.r_concurrent_expected) ]

let net_storm = function
  | Full -> Net_storm.run ()
  | Smoke ->
      Net_storm.run ~cpus:[ 1; 2 ] ~endpoints:6 ~clients:50 ~packets:400
        ~sessions:2 ~flood_syns:30 ~victim_ops:2 ()

let net_gates r =
  let x = Net_storm.steady_speedup r ~ncpus:4 in
  let tail = Net_storm.skew_tail_ratio r in
  (if List.mem 4 r.Net_storm.nr_cpus then
     [ gate "steady packets/sec at 4 CPUs %.2fx >= 2.50x" x (x >= 2.5) ]
   else [])
  @ [ gate "worst skewed p99/p50 %.2f <= 3.00" tail (tail <= 3.0);
      zero "lost acknowledged operations" (Net_storm.total_lost r) ]

let storm_gates r =
  let open Fault_storm in
  let avail = min_availability r and fastfail = degraded_fastfail r in
  [ zero "acked operations lost" (total_lost r);
    zero "fsck findings on the file-server volumes" (total_fsck_findings r);
    gate "worst availability %.3f >= 0.90" avail (avail >= 0.9);
    gate "untouched shards golden" (golden_ok r);
    gate "degraded fast-fail %d cycles in [0, 100000]" fastfail
      (fastfail >= 0 && fastfail <= 100_000) ]

let fault_storm = function
  | Full -> Fault_storm.run ()
  | Smoke ->
      Fault_storm.run ~endpoints:6 ~rounds:16 ~victim_ops:3 ~clients:1
        ~sessions:2 ()

let factor_gates json =
  match J.member "factor" json with
  | Some (J.Num f) ->
      [ gate "factor %.2fx within 2.5-5x" f (f >= 2.5 && f <= 5.0) ]
  | _ -> []

(* --- the table ------------------------------------------------------------ *)

(* Every experiment runs under one checker installed around it. *)
let paper ?(gates = fun _ -> []) name f =
  let run ?(checks = true) _ =
    let json, check = Check.with_checker checks f in
    { json; gates = gates json; check }
  in
  { name; file = None; run }

let stress name file run ~json ~gates =
  let run ?(checks = true) scale =
    let r, check = Check.with_checker checks (fun () -> run scale) in
    { json = json r; gates = gates r; check }
  in
  { name; file = Some file; run }

let all =
  [
    paper "table1" table1;
    paper "table2" table2;
    stress "ipc-stress" "BENCH_ipc.json" ipc_stress ~json:Ipc_stress.to_json
      ~gates:ipc_gates;
    stress "recovery-sweep" "BENCH_recovery.json" recovery_sweep
      ~json:Recovery_sweep.to_json ~gates:recovery_gates;
    stress "smp-scaling" "BENCH_smp.json" smp_scaling
      ~json:Smp_scaling.to_json ~gates:smp_gates;
    stress "vfs-walk" "BENCH_vfs.json" vfs_walk ~json:Vfs_walk.to_json
      ~gates:vfs_gates;
    stress "net-storm" "BENCH_net.json" net_storm ~json:Net_storm.to_json
      ~gates:net_gates;
    stress "fault-storm" "BENCH_storm.json" fault_storm
      ~json:Fault_storm.to_json ~gates:storm_gates;
    paper "figure1" figure1;
    paper "fileserver-factor" fileserver_factor ~gates:factor_gates;
    paper "finegrain" finegrain;
    paper "memfootprint" memfootprint;
    paper "drivers" drivers;
    paper "nameservice" nameservice;
  ]

let find name = List.find_opt (fun e -> e.name = name) all

(* --- documents ------------------------------------------------------------ *)

let document e o =
  let seed =
    match J.member "seed" o.json with
    | Some (J.Num s) -> Some (int_of_float s)
    | _ -> None
  in
  let body =
    match o.json with J.Obj fields -> fields | j -> [ ("result", j) ]
  in
  let check = Option.map (fun r -> ("machcheck", Check.to_json r)) o.check in
  Run_meta.envelope e.name ?seed (body @ Option.to_list check)

let check_document reports =
  let total =
    List.fold_left (fun acc (_, r) -> acc + Check.total_findings r) 0 reports
  in
  Run_meta.envelope "machcheck"
    [ ("total_findings", J.int total);
      ( "workloads",
        J.Obj (List.map (fun (name, r) -> (name, Check.to_json r)) reports) ) ]

let failures o =
  List.filter_map (fun (name, ok) -> if ok then None else Some name) o.gates
  @
  match o.check with
  | Some rep when Check.total_findings rep > 0 ->
      [ Printf.sprintf "machcheck findings %d = 0" (Check.total_findings rep) ]
  | Some _ | None -> []
