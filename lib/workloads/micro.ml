open Mach.Ktypes

type table2_row = {
  t2_label : string;
  t2_instructions : float;
  t2_cycles : float;
  t2_bus_cycles : float;
  t2_cpi : float;
  t2_icache_misses : float;
  t2_tlb_misses : float;
}

let per_op (d : Machine.Perf.snapshot) iters =
  let f x = float_of_int x /. float_of_int iters in
  ( f d.Machine.Perf.instructions,
    f d.Machine.Perf.cycles,
    f d.Machine.Perf.bus_cycles,
    Machine.Perf.cpi d,
    f d.Machine.Perf.icache_misses,
    f d.Machine.Perf.tlb_misses )

let snapshot m = Machine.Perf.snapshot (Machine.Cpu.perf m.Machine.cpu)

let table2 ?(iters = 2000) () =
  let m = Machine.create Machine.Config.pentium_133 in
  let k = Mach.Kernel.boot m in
  let sys = k.Mach.Kernel.sys in
  let client = Mach.Kernel.task_create k ~name:"client" ~personality:"bench" () in
  let server = Mach.Kernel.task_create k ~name:"server" ~personality:"bench" () in
  let port = Mach.Port.allocate sys ~receiver:server ~name:"svc" in
  ignore
    (Mach.Kernel.thread_spawn k server ~name:"srv" (fun () ->
         Mach.Rpc.serve sys port (fun _ -> simple_message ()))
      : thread);
  let trap = ref Machine.Perf.zero and rpc = ref Machine.Perf.zero in
  ignore
    (Mach.Kernel.thread_spawn k client ~name:"cl" (fun () ->
         for _ = 1 to 200 do
           ignore (Mach.Trap.thread_self sys)
         done;
         let t0 = snapshot m in
         for _ = 1 to iters do
           ignore (Mach.Trap.thread_self sys)
         done;
         trap := Machine.Perf.diff (snapshot m) t0;
         (* a null RPC's ack is the bare [P_unit]: acknowledge it
            explicitly so the round-trip being timed is the successful
            protocol, not whatever the server happened to answer *)
         let null_call () =
           match Mach.Rpc.call sys port (simple_message ~inline_bytes:32 ()) with
           | Ok { msg_payload = P_unit; _ } -> ()
           | Ok _ | Error _ -> ()
         in
         for _ = 1 to 200 do
           null_call ()
         done;
         let r0 = snapshot m in
         for _ = 1 to iters do
           null_call ()
         done;
         rpc := Machine.Perf.diff (snapshot m) r0;
         Mach.Port.destroy sys port)
      : thread);
  Mach.Kernel.run k;
  let row label d =
    let i, c, b, cpi, im, tm = per_op d iters in
    { t2_label = label; t2_instructions = i; t2_cycles = c; t2_bus_cycles = b;
      t2_cpi = cpi; t2_icache_misses = im; t2_tlb_misses = tm }
  in
  (row "thread_self" !trap, row "32-byte RPC" !rpc)

(* --- E5: the factor-of-3 file-server cost ----------------------------------- *)

type factor = {
  fx_rpc_cycles_per_op : float;
  fx_trap_cycles_per_op : float;
  fx_factor : float;
}

(* The same op mix against any open/read/write/seek/close surface: a
   quarter run warms the cache and the code paths, then the full run is
   timed.  Cycles per op on [m]. *)
let time_mix m ~ops ~open_ ~read ~write ~seek ~close =
  let mix ops =
    let h = open_ () in
    for i = 1 to ops do
      seek h (i * 512 mod 4096);
      read h 512;
      write h 512
    done;
    close h
  in
  mix (ops / 4);
  let t0 = Machine.now m in
  mix ops;
  float_of_int (Machine.now m - t0) /. float_of_int ops

let ok_exn = function Ok h -> h | Error e -> Rig.fail_fs e

let fileserver_factor ?(ops = 400) () =
  (* multi-server: minimal WPOS file stack on the Pentium machine *)
  let rpc_cycles =
    let module B = Mk_services.Bootstrap in
    let module C = Fileserver.File_server.Client in
    let m = Machine.create Machine.Config.pentium_133 in
    let services = B.boot ~naming:B.Simple_naming m in
    let k = services.B.kernel in
    let vfs = Fileserver.Vfs.create () in
    ignore (Rig.mount_hpfs k m.Machine.disk vfs : Fileserver.Block_cache.t);
    let fs = Fileserver.File_server.start k services.B.runtime vfs () in
    let sem = Fileserver.Vfs.os2_semantics in
    let app = Mach.Kernel.task_create k ~name:"app" () in
    let cycles = ref 0. in
    ignore
      (Mach.Kernel.thread_spawn k app ~name:"app" (fun () ->
           cycles :=
             time_mix m ~ops
               ~open_:(fun () ->
                 ok_exn (C.open_ fs sem ~path:"/os2/bench" ~create:true ()))
               ~read:(fun h n -> ignore (C.read fs h ~bytes:n))
               ~write:(fun h n -> ignore (C.write fs h (Bytes.make n 'x')))
               ~seek:(fun h pos -> C.seek fs h ~pos)
               ~close:(C.close fs))
        : thread);
    Mach.Kernel.run k;
    !cycles
  in
  (* monolithic: the same code in-kernel *)
  let trap_cycles =
    let m = Machine.create Machine.Config.pentium_133 in
    let mono = Monolithic.boot m ~fs_format:`Hpfs () in
    let cycles = ref 0. in
    ignore
      (Monolithic.spawn_process mono ~name:"app" (fun () ->
           cycles :=
             time_mix m ~ops
               ~open_:(fun () ->
                 ok_exn (Monolithic.sys_open mono ~path:"/c/bench" ~create:true ()))
               ~read:(fun h n -> ignore (Monolithic.sys_read mono h ~bytes:n))
               ~write:(fun h n ->
                 ignore (Monolithic.sys_write mono h (Bytes.make n 'x')))
               ~seek:(fun h pos -> Monolithic.sys_seek mono h ~pos)
               ~close:(Monolithic.sys_close mono))
        : Mach.Ktypes.task);
    Monolithic.run mono;
    !cycles
  in
  {
    fx_rpc_cycles_per_op = rpc_cycles;
    fx_trap_cycles_per_op = trap_cycles;
    fx_factor = rpc_cycles /. trap_cycles;
  }
