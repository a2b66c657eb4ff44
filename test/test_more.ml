(* Additional edge-case coverage across the stack. *)

open Mach.Ktypes

let kr = Alcotest.testable
    (fun ppf k -> Format.pp_print_string ppf (kern_return_to_string k))
    ( = )

(* --- machine edges -------------------------------------------------------- *)

let test_layout_alloc_at_overlap () =
  let l = Machine.Layout.create Machine.Config.pentium_133 in
  let r = Machine.Layout.alloc l ~name:"a" ~kind:Machine.Layout.Code ~size:8192 in
  Alcotest.check_raises "overlap rejected" (Invalid_argument "overlap")
    (fun () ->
      try
        ignore
          (Machine.Layout.alloc_at l ~name:"b" ~kind:Machine.Layout.Code
             ~base:(r.Machine.Layout.base + 4096) ~size:4096
            : Machine.Layout.region)
      with Invalid_argument _ -> raise (Invalid_argument "overlap"))

let test_layout_alloc_at_fixed () =
  let l = Machine.Layout.create Machine.Config.pentium_133 in
  let r =
    Machine.Layout.alloc_at l ~name:"fixed" ~kind:Machine.Layout.Data
      ~base:0x40000000 ~size:100
  in
  Alcotest.(check int) "placed exactly" 0x40000000 r.Machine.Layout.base;
  Alcotest.(check int) "page rounded" 4096 r.Machine.Layout.size

let test_config_with_memory () =
  let c = Machine.Config.with_memory Machine.Config.pentium_133 ~bytes:(8 * 1024 * 1024) in
  Alcotest.(check int) "pages" 2048 (Machine.Config.pages c);
  Alcotest.(check string) "name kept" "pentium-133" c.Machine.Config.name

let test_perf_cpi_nan () =
  Alcotest.(check bool) "cpi of empty window is nan" true
    (Float.is_nan (Machine.Perf.cpi Machine.Perf.zero))

let test_disk_write_bad_length () =
  let m = Test_util.pentium () in
  let rejects label data =
    Alcotest.check_raises label (Invalid_argument "len") (fun () ->
        try Machine.Disk.write m.Machine.disk ~block:0 data (fun () -> ())
        with Invalid_argument _ -> raise (Invalid_argument "len"))
  in
  rejects "partial block rejected" [ Bytes.make 100 'x' ];
  (* every element of a gather list must be whole blocks, not just the sum *)
  rejects "partial element rejected"
    [ Bytes.make 512 'a'; Bytes.make 100 'x'; Bytes.make 412 'b' ];
  rejects "empty gather list rejected" []

let test_framebuffer_blit_row_bounds () =
  let m = Test_util.pentium () in
  let fb = m.Machine.framebuffer in
  Machine.Framebuffer.blit_row fb m.Machine.cpu ~x:0 ~y:479 (String.make 640 'r');
  Alcotest.(check char) "last row" 'r' (Machine.Framebuffer.pixel fb ~x:639 ~y:479);
  Alcotest.check_raises "off screen" (Invalid_argument "oob") (fun () ->
      try Machine.Framebuffer.blit_row fb m.Machine.cpu ~x:1 ~y:479 (String.make 640 'r')
      with Invalid_argument _ -> raise (Invalid_argument "oob"))

let test_cache_probe_pure () =
  let c = Machine.Cache.create { Machine.Config.size = 1024; line = 32; assoc = 2 } in
  Alcotest.(check bool) "probe misses" false (Machine.Cache.probe c 0x100);
  Alcotest.(check bool) "probe did not insert" false (Machine.Cache.probe c 0x100)

(* --- kernel edges ----------------------------------------------------------- *)

let test_task_halt_terminates () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  let progressed = ref 0 in
  Test_util.spawn k t "loop" (fun () ->
      for _ = 1 to 100 do
        incr progressed;
        Mach.Sched.yield ()
      done);
  Test_util.spawn k t "killer" (fun () -> Mach.Sched.task_halt sys t);
  Mach.Kernel.run k;
  Alcotest.(check bool) "loop interrupted" true (!progressed < 100);
  Alcotest.(check bool) "task halted" true t.halted;
  (* spawning into a halted task is rejected *)
  match Mach.Kernel.thread_spawn k t ~name:"late" (fun () -> ()) with
  | exception Kern_error Kern_invalid_argument -> ()
  | _ -> Alcotest.fail "spawn into halted task succeeded"

let test_virtual_alloc_distinct () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let a = Mach.Sched.virtual_alloc sys ~bytes:100 in
  let b = Mach.Sched.virtual_alloc sys ~bytes:100 in
  Alcotest.(check bool) "page aligned" true (a mod 4096 = 0);
  Alcotest.(check bool) "disjoint" true (b >= a + 4096)

let test_vm_deallocate_releases () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  Test_util.run_in_thread k (fun () ->
      let r0 = Mach.Vm.resident_pages sys in
      let addr = Mach.Vm.allocate sys t ~bytes:(4 * 4096) ~eager:true () in
      Alcotest.(check int) "committed" (r0 + 4) (Mach.Vm.resident_pages sys);
      Mach.Vm.deallocate sys t ~addr;
      Alcotest.(check int) "released" r0 (Mach.Vm.resident_pages sys);
      match Mach.Vm.deallocate sys t ~addr with
      | () -> Alcotest.fail "double deallocate succeeded"
      | exception Kern_error Kern_invalid_argument -> ())

let test_vm_map_at_conflict () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  let obj = Mach.Vm.object_create sys ~bytes:8192 () in
  let addr = Mach.Vm.map_object sys t obj ~bytes:8192 () in
  match Mach.Vm.map_object sys t obj ~at:addr ~bytes:4096 () with
  | exception Kern_error Kern_no_space -> ()
  | _ -> Alcotest.fail "overlapping fixed mapping succeeded"

let test_ipc_send_dead_port () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  let p = Mach.Port.allocate sys ~receiver:t ~name:"p" in
  Mach.Port.destroy sys p;
  let r = Test_util.run_in_thread k (fun () -> Mach.Ipc.send sys p (simple_message ())) in
  Alcotest.check kr "dead" Kern_port_dead r

let test_rpc_rights_transfer () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let client = Mach.Kernel.task_create k ~name:"client" () in
  let server = Mach.Kernel.task_create k ~name:"server" () in
  let svc = Mach.Port.allocate sys ~receiver:server ~name:"svc" in
  let callback = Mach.Port.allocate sys ~receiver:client ~name:"callback" in
  let received = ref None in
  Test_util.spawn k server "srv" (fun () ->
      match Mach.Rpc.receive sys svc with
      | Ok rx ->
          (match rx.rx_request.msg_rights with
          | [ (p, Send_right) ] ->
              received := Some p;
              (* deposit the right into the server's port space *)
              ignore (Mach.Port.insert_right sys server p Send_right : int)
          | _ -> ());
          Mach.Rpc.reply sys rx (simple_message ())
      | Error e -> Alcotest.fail (kern_return_to_string e));
  Test_util.spawn k client "cl" (fun () ->
      ignore
        (Mach.Rpc.call sys svc
           (simple_message ~rights:[ (callback, Send_right) ] ())));
  Mach.Kernel.run k;
  (match !received with
  | Some p -> Alcotest.(check bool) "same port" true (p == callback)
  | None -> Alcotest.fail "right not transferred");
  Alcotest.(check bool) "server holds the right" true
    (Mach.Port.lookup_port server callback <> None)

let test_oneshot_timer_cancel () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let fired = ref false in
  let timer = Mach.Clock.arm_oneshot sys ~after:1000 (fun () -> fired := true) in
  Mach.Clock.cancel timer;
  Test_util.run_in_thread k (fun () ->
      ignore (Mach.Clock.sleep_for sys ~cycles:10_000 : kern_return));
  Alcotest.(check bool) "cancelled timer silent" false !fired;
  Alcotest.(check int) "never fired" 0 (Mach.Clock.fired timer)

let test_get_time_advances () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  Test_util.run_in_thread k (fun () ->
      let t1 = Mach.Clock.get_time sys in
      let t2 = Mach.Clock.get_time sys in
      Alcotest.(check bool) "time moves (the trap itself costs)" true (t2 > t1))

(* --- services edges ----------------------------------------------------------- *)

let test_runtime_format () =
  let k = Test_util.kernel_on () in
  let rt = Mk_services.Runtime.install k in
  let m = k.Mach.Kernel.machine in
  let t0 = Machine.now m in
  Mk_services.Runtime.format_cost rt ~chars:5000;
  Alcotest.(check bool) "format charged" true (Machine.now m > t0)

let test_loader_missing_dependency () =
  let b = Mk_services.Bootstrap.boot (Test_util.pentium ()) in
  let ld = b.Mk_services.Bootstrap.loader in
  Mk_services.Loader.register ld
    {
      Mk_services.Loader.img_name = "app";
      img_format = Mk_services.Loader.Elf_svr4;
      img_text_bytes = 4096;
      img_data_bytes = 0;
      img_symbols = 2;
      img_needs = [ "libmissing.so" ];
    };
  let task = Mach.Kernel.task_create b.Mk_services.Bootstrap.kernel ~name:"t" () in
  match Mk_services.Loader.load_program ld task "app" ~entry:(fun () -> ()) with
  | Error e -> Alcotest.(check bool) "names the need" true
                 (String.length e > 0)
  | Ok _ -> Alcotest.fail "loaded despite missing dependency"

let test_pager_swap_accounting () =
  let config =
    Machine.Config.with_memory Machine.Config.pentium_133 ~bytes:(3 * 1024 * 1024)
  in
  let b = Mk_services.Bootstrap.boot (Machine.create config) in
  let k = b.Mk_services.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let t = Mach.Kernel.task_create k ~name:"hog" () in
  Test_util.run_in_thread k (fun () ->
      let bytes = 4 * 1024 * 1024 in
      let addr = Mach.Vm.allocate sys t ~bytes () in
      let rec walk off =
        if off < bytes then begin
          Mach.Vm.touch sys t ~addr:(addr + off) ~write:true ~bytes:32 ();
          walk (off + 4096)
        end
      in
      walk 0;
      walk 0);
  let pager = b.Mk_services.Bootstrap.pager in
  Alcotest.(check bool) "swap slots allocated" true
    (Mk_services.Default_pager.swap_blocks_used pager > 0);
  Alcotest.(check bool) "pageouts recorded" true
    (Mk_services.Default_pager.pageouts pager > 0)

(* --- fileserver edges ------------------------------------------------------------ *)

let test_fat_free_blocks () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  Fileserver.Fat.mkfs disk ~blocks:2048 ();
  let cache = Fileserver.Block_cache.create k disk () in
  Test_util.run_in_thread k (fun () ->
      match Fileserver.Fat.mount cache () with
      | Error e -> Alcotest.fail (Fileserver.Fs_types.fs_error_to_string e)
      | Ok pfs ->
          let open Fileserver.Fs_types in
          let free0 = pfs.pfs_free_blocks () in
          let id = Test_util.check_fs_ok "create"
              (pfs.pfs_create ~dir:pfs.pfs_root "F.BIN" ~is_dir:false) in
          ignore (Test_util.check_fs_ok "write"
                    (pfs.pfs_write id ~off:0 (Bytes.make 2048 'x')));
          let free1 = pfs.pfs_free_blocks () in
          Alcotest.(check bool) "blocks consumed" true (free1 < free0);
          Test_util.check_fs_ok "remove" (pfs.pfs_remove ~dir:pfs.pfs_root "F.BIN");
          Alcotest.(check int) "blocks returned" free0 (pfs.pfs_free_blocks ()))

let test_extfs_inode_reuse () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  Fileserver.Jfs.mkfs disk ();
  let cache = Fileserver.Block_cache.create k disk () in
  Test_util.run_in_thread k (fun () ->
      match Fileserver.Jfs.mount cache () with
      | Error e -> Alcotest.fail (Fileserver.Fs_types.fs_error_to_string e)
      | Ok pfs ->
          let open Fileserver.Fs_types in
          let a = Test_util.check_fs_ok "create a"
              (pfs.pfs_create ~dir:pfs.pfs_root "a" ~is_dir:false) in
          Test_util.check_fs_ok "remove a" (pfs.pfs_remove ~dir:pfs.pfs_root "a");
          let b = Test_util.check_fs_ok "create b"
              (pfs.pfs_create ~dir:pfs.pfs_root "b" ~is_dir:false) in
          Alcotest.(check int) "inode reused" a b)

let test_vfs_mount_errors () =
  let vfs = Fileserver.Vfs.create () in
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  Fileserver.Hpfs.mkfs disk ();
  let cache = Fileserver.Block_cache.create k disk () in
  Test_util.run_in_thread k (fun () ->
      match Fileserver.Hpfs.mount cache () with
      | Error e -> Alcotest.fail (Fileserver.Fs_types.fs_error_to_string e)
      | Ok pfs ->
          (match Fileserver.Vfs.mount vfs ~at:"/a/b" pfs with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "nested mount point accepted");
          (match Fileserver.Vfs.mount vfs ~at:"/x" pfs with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          match Fileserver.Vfs.mount vfs ~at:"/x" pfs with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "duplicate mount point accepted")

(* --- netserver edge --------------------------------------------------------------- *)

let test_socket_close_frees_port () =
  let k = Test_util.kernel_on () in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  (match Netserver.udp_socket net ~port:4242 with
  | Ok s ->
      Netserver.close net s;
      (match Netserver.udp_socket net ~port:4242 with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e)

let suite =
  [
    Alcotest.test_case "layout alloc_at overlap" `Quick test_layout_alloc_at_overlap;
    Alcotest.test_case "layout alloc_at fixed" `Quick test_layout_alloc_at_fixed;
    Alcotest.test_case "config with_memory" `Quick test_config_with_memory;
    Alcotest.test_case "perf cpi nan" `Quick test_perf_cpi_nan;
    Alcotest.test_case "disk write bad length" `Quick test_disk_write_bad_length;
    Alcotest.test_case "framebuffer blit bounds" `Quick test_framebuffer_blit_row_bounds;
    Alcotest.test_case "cache probe pure" `Quick test_cache_probe_pure;
    Alcotest.test_case "task halt" `Quick test_task_halt_terminates;
    Alcotest.test_case "virtual alloc distinct" `Quick test_virtual_alloc_distinct;
    Alcotest.test_case "vm deallocate releases" `Quick test_vm_deallocate_releases;
    Alcotest.test_case "vm map at conflict" `Quick test_vm_map_at_conflict;
    Alcotest.test_case "ipc send dead port" `Quick test_ipc_send_dead_port;
    Alcotest.test_case "rpc rights transfer" `Quick test_rpc_rights_transfer;
    Alcotest.test_case "oneshot timer cancel" `Quick test_oneshot_timer_cancel;
    Alcotest.test_case "get_time advances" `Quick test_get_time_advances;
    Alcotest.test_case "runtime format" `Quick test_runtime_format;
    Alcotest.test_case "loader missing dependency" `Quick test_loader_missing_dependency;
    Alcotest.test_case "pager swap accounting" `Slow test_pager_swap_accounting;
    Alcotest.test_case "fat free blocks" `Quick test_fat_free_blocks;
    Alcotest.test_case "extfs inode reuse" `Quick test_extfs_inode_reuse;
    Alcotest.test_case "vfs mount errors" `Quick test_vfs_mount_errors;
    Alcotest.test_case "socket close frees port" `Quick test_socket_close_frees_port;
  ]
