(* Machcheck: the rights sanitizer, deadlock detector and
   buffer-lifetime sanitizer.

   Each checker gets seeded known-bad scenarios proving it fires and
   names the offender, plus clean-path tests proving it stays silent —
   including all four existing workloads (Table1, Micro, Ipc_stress,
   the fs-crash sweep) run end to end under an installed checker. *)

open Mach.Ktypes
module F = Fileserver

let contains = Test_util.contains

let find_kind rep kind =
  List.filter (fun f -> f.Check.f_kind = kind) rep.Check.findings

let checked_kernel () =
  let k = Test_util.kernel_on () in
  let chk = Check.create () in
  Mach.Sched.enable_checks k.Mach.Kernel.sys chk;
  (k, k.Mach.Kernel.sys, chk)

(* --- rights sanitizer: seeded known-bads -------------------------------- *)

let test_leaked_right () =
  let _k, sys, chk = checked_kernel () in
  let owner = Mach.Sched.task_create sys ~name:"owner" () in
  let user = Mach.Sched.task_create sys ~name:"user" () in
  let p = Mach.Port.allocate sys ~receiver:owner ~name:"leaky" in
  ignore (Mach.Port.insert_right sys user p Send_right : int);
  Mach.Port.destroy sys p;
  (* the receive right died with the port; [user]'s send right dangles *)
  let rep = Check.report chk in
  Alcotest.(check int) "one leak" 1 (Check.count rep "leaked_rights");
  Alcotest.(check int) "user still shadows one right" 1
    (Mach.Mcheck.dead_rights sys user);
  Alcotest.(check int) "owner's receive right was reclaimed" 0
    (Mach.Mcheck.live_rights sys owner);
  Alcotest.(check int) "and really left the namespace" 0
    (Mach.Port.rights_held owner);
  match find_kind rep "leak" with
  | [ f ] ->
      Alcotest.(check bool) "names the task" true (contains f.Check.f_detail "user");
      Alcotest.(check bool) "names the port" true (contains f.Check.f_detail "leaky")
  | fs -> Alcotest.failf "expected exactly one leak finding, got %d" (List.length fs)

let test_double_free () =
  let _k, sys, chk = checked_kernel () in
  let owner = Mach.Sched.task_create sys ~name:"owner" () in
  let user = Mach.Sched.task_create sys ~name:"clumsy" () in
  let p = Mach.Port.allocate sys ~receiver:owner ~name:"p" in
  let name = Mach.Port.insert_right sys user p Send_right in
  Alcotest.(check bool) "first dealloc ok" true
    (Mach.Port.deallocate_right sys user name = Kern_success);
  Alcotest.(check bool) "second dealloc rejected" true
    (Mach.Port.deallocate_right sys user name = Kern_invalid_name);
  let rep = Check.report chk in
  Alcotest.(check int) "one double-free" 1
    (Check.count rep "right_double_frees");
  match find_kind rep "double-free" with
  | [ f ] ->
      Alcotest.(check bool) "names the task" true
        (contains f.Check.f_detail "clumsy")
  | fs ->
      Alcotest.failf "expected exactly one double-free finding, got %d"
        (List.length fs)

let test_downgrade () =
  (* The kernel itself never weakens a held right (PR 2's fix), so the
     kernel-driven path must stay silent... *)
  let _k, sys, chk = checked_kernel () in
  let owner = Mach.Sched.task_create sys ~name:"owner" () in
  let p = Mach.Port.allocate sys ~receiver:owner ~name:"p" in
  ignore (Mach.Port.insert_right sys owner p Send_once_right : int);
  Alcotest.(check int) "kernel upgrade-only insert is clean" 0
    (Check.count (Check.report chk) "right_downgrades");
  (* ...and the checker is what would catch a kernel regressing it:
     shadow a port space whose second insert records a weaker right. *)
  let bad = Check.create () in
  let space = Check.new_space bad in
  Check.right_inserted bad ~space ~task:7 ~tname:"victim" ~port:9 ~pname:"cap"
    ~right:Check.R_receive ~now:Check.R_receive;
  Check.right_inserted bad ~space ~task:7 ~tname:"victim" ~port:9 ~pname:"cap"
    ~right:Check.R_send_once ~now:Check.R_send_once;
  let rep = Check.report bad in
  Alcotest.(check int) "downgrade detected" 1
    (Check.count rep "right_downgrades");
  match find_kind rep "downgrade" with
  | [ f ] ->
      Alcotest.(check bool) "names the port" true (contains f.Check.f_detail "cap")
  | fs ->
      Alcotest.failf "expected exactly one downgrade finding, got %d"
        (List.length fs)

(* --- deadlock detector: seeded known-bads ------------------------------- *)

let[@machlint.allow "lock-order"] test_mutex_abba_cycle () =
  let k, sys, chk = checked_kernel () in
  let t = Mach.Sched.task_create sys ~name:"app" () in
  let m1 = Mach.Sync.mutex_create sys ~name:"m1" in
  let m2 = Mach.Sync.mutex_create sys ~name:"m2" in
  Test_util.spawn k t "t1" (fun () ->
      Mach.Sync.mutex_lock sys m1;
      Mach.Sched.yield ();
      Mach.Sync.mutex_lock sys m2);
  Test_util.spawn k t "t2" (fun () ->
      Mach.Sync.mutex_lock sys m2;
      Mach.Sched.yield ();
      Mach.Sync.mutex_lock sys m1);
  Mach.Kernel.run k;
  let rep = Check.report chk in
  Alcotest.(check int) "one wait cycle" 1 (Check.count rep "wait_cycles");
  Alcotest.(check int) "both threads still in the graph" 2
    (Check.blocked_count chk);
  match find_kind rep "wait-cycle" with
  | [ f ] ->
      Alcotest.(check bool) "dumps both mutexes" true
        (contains f.Check.f_detail "mutex(m1)"
        && contains f.Check.f_detail "mutex(m2)");
      Alcotest.(check bool) "dumps the task/thread names" true
        (contains f.Check.f_detail "app.t1" && contains f.Check.f_detail "app.t2")
  | fs ->
      Alcotest.failf "expected exactly one cycle finding, got %d"
        (List.length fs)

let test_self_rpc_cycle () =
  let k, sys, chk = checked_kernel () in
  let srv = Mach.Sched.task_create sys ~name:"srv" () in
  let cl = Mach.Sched.task_create sys ~name:"cl" () in
  let p = Mach.Port.allocate sys ~receiver:srv ~name:"loopback" in
  Test_util.spawn k srv "serve" (fun () ->
      Mach.Rpc.serve sys p (fun _msg ->
          (* the handler calls its own service: it waits on itself *)
          ignore (Mach.Rpc.call sys p (simple_message ()));
          simple_message ()));
  Test_util.spawn k cl "caller" (fun () ->
      ignore (Mach.Rpc.call sys p (simple_message ())));
  Mach.Kernel.run k;
  let rep = Check.report chk in
  Alcotest.(check int) "self-call cycle" 1 (Check.count rep "wait_cycles");
  match find_kind rep "wait-cycle" with
  | [ f ] ->
      Alcotest.(check bool) "names the service port" true
        (contains f.Check.f_detail "rpc-call(loopback)");
      Alcotest.(check bool) "names the server thread" true
        (contains f.Check.f_detail "srv.serve")
  | fs ->
      Alcotest.failf "expected exactly one cycle finding, got %d"
        (List.length fs)

(* --- deadlock detector: wakes must leave no stale edges ------------------ *)

let test_port_death_clears_edges () =
  let k, sys, chk = checked_kernel () in
  let t = Mach.Sched.task_create sys ~name:"rcv" () in
  let t2 = Mach.Sched.task_create sys ~name:"killer" () in
  let p = Mach.Port.allocate sys ~receiver:t ~name:"doomed" in
  let woken = ref false in
  Test_util.spawn k t "rcv" (fun () ->
      match Mach.Ipc.receive sys p with
      | Error Kern_port_dead -> woken := true
      | _ -> ());
  Test_util.spawn k t2 "killer" (fun () -> Mach.Port.destroy sys p);
  Mach.Kernel.run k;
  Alcotest.(check bool) "receiver woken by the dying port" true !woken;
  Alcotest.(check int) "no stale wait-for edges" 0 (Check.blocked_count chk);
  Alcotest.(check int) "and no findings" 0
    (Check.total_findings (Check.report chk))

let test_fault_kill_clears_edges () =
  (* a server crash injected mid-run wakes the blocked client with
     port-death; its wait-for edge must go with it *)
  let k, sys, chk = checked_kernel () in
  let plan = Mach.Fault.create ~seed:3 () in
  Mach.Fault.script plan ~site:"svc" ~n:1 Mach.Fault.Crash_server;
  sys.Mach.Sched.faults <- Some plan;
  let srv = Mach.Sched.task_create sys ~name:"srv" () in
  let cl = Mach.Sched.task_create sys ~name:"cl" () in
  let p = Mach.Port.allocate sys ~receiver:srv ~name:"svc" in
  Test_util.spawn k srv "serve" (fun () ->
      Mach.Rpc.serve sys p (fun _ -> simple_message ()));
  let got = ref None in
  Test_util.spawn k cl "caller" (fun () ->
      got :=
        Some (Mach.Rpc.call sys p ~deadline:50_000 (simple_message ())));
  Mach.Kernel.run k;
  (match !got with
  | Some (Error (Kern_port_dead | Kern_timed_out | Kern_aborted)) -> ()
  | Some (Ok _) -> Alcotest.fail "call to a crashed server succeeded"
  | Some (Error e) -> Alcotest.failf "odd error: %s" (kern_return_to_string e)
  | None -> Alcotest.fail "client never returned");
  Alcotest.(check int) "no stale wait-for edges after the kill" 0
    (Check.blocked_count chk);
  Alcotest.(check int) "no cycle findings" 0
    (Check.count (Check.report chk) "wait_cycles")

let test_wrong_holder_unlock_audited () =
  let k, sys, chk = checked_kernel () in
  let t = Mach.Sched.task_create sys ~name:"app" () in
  let m = Mach.Sync.mutex_create sys ~name:"m" in
  let order = Buffer.create 8 in
  Test_util.spawn k t "holder" (fun () ->
      Mach.Sync.mutex_lock sys m;
      Buffer.add_char order 'a';
      Mach.Sched.yield ();
      Mach.Sched.yield ();
      Mach.Sync.mutex_unlock sys m;
      Buffer.add_char order 'r');
  Test_util.spawn k t "thief" (fun () ->
      (* wrong-holder unlock: rejected before any state change, so the
         owner edge stays with the true holder *)
      (try
         Mach.Sync.mutex_unlock sys m;
         Alcotest.fail "wrong-holder unlock succeeded"
       with Kern_error Kern_invalid_argument -> Buffer.add_char order 'x');
      Mach.Sync.mutex_lock sys m;
      Buffer.add_char order 'l';
      Mach.Sync.mutex_unlock sys m);
  Mach.Kernel.run k;
  Alcotest.(check string) "thief acquires only after the real unlock" "axrl"
    (Buffer.contents order);
  Alcotest.(check int) "graph drained" 0 (Check.blocked_count chk);
  Alcotest.(check int) "no findings" 0 (Check.total_findings (Check.report chk))

(* --- buffer-lifetime sanitizer: seeded known-bads ------------------------ *)

let test_buffer_double_release () =
  let k, _sys, chk = checked_kernel () in
  let kt = k.Mach.Kernel.ktext in
  let a = Mach.Ktext.buffer_alloc kt ~bytes:128 in
  Mach.Ktext.buffer_free kt a;
  Mach.Ktext.buffer_free kt a;
  let rep = Check.report chk in
  Alcotest.(check int) "double release detected" 1
    (Check.count rep "buf_double_releases");
  match find_kind rep "double-release" with
  | [ f ] ->
      Alcotest.(check bool) "names the buffer" true
        (contains f.Check.f_detail (Printf.sprintf "0x%x" a))
  | fs ->
      Alcotest.failf "expected exactly one double-release finding, got %d"
        (List.length fs)

let test_buffer_use_after_release () =
  let k, _sys, chk = checked_kernel () in
  let kt = k.Mach.Kernel.ktext in
  let a = Mach.Ktext.buffer_alloc kt ~bytes:256 in
  Mach.Ktext.buffer_use kt a;  (* live: fine *)
  Mach.Ktext.buffer_free kt a;
  Mach.Ktext.buffer_use kt a;  (* retired: a kernel path on a stale handle *)
  let rep = Check.report chk in
  Alcotest.(check int) "use-after-release detected" 1
    (Check.count rep "buf_use_after_release");
  Alcotest.(check int) "no double release" 0
    (Check.count rep "buf_double_releases")

let test_buffer_clean_traffic () =
  (* sustained mach_msg traffic allocates and retires buffers constantly;
     none of it may trip the sanitizer *)
  let k, sys, chk = checked_kernel () in
  let srv = Mach.Sched.task_create sys ~name:"srv" () in
  let cl = Mach.Sched.task_create sys ~name:"cl" () in
  let p = Mach.Port.allocate sys ~receiver:srv ~name:"svc" in
  Test_util.spawn k srv "serve" (fun () ->
      Mach.Ipc.serve sys p (fun _ -> simple_message ()));
  Test_util.spawn k cl "cl" (fun () ->
      for _ = 1 to 50 do
        ignore (Mach.Ipc.call sys p (simple_message ~inline_bytes:256 ()))
      done;
      Mach.Port.destroy sys p);
  Mach.Kernel.run k;
  let rep = Check.report chk in
  Alcotest.(check bool) "buffers were shadowed" true
    (Check.count rep "buffers_shadowed" > 50);
  Alcotest.(check int) "no buffer findings" 0
    (Check.count rep "buf_double_releases"
    + Check.count rep "buf_use_after_release");
  Alcotest.(check int) "no findings at all" 0
    (Check.total_findings rep)

(* --- remap checker: seeded known-bads ------------------------------------ *)

let[@machlint.allow "port-linearity"] test_remap_double_move () =
  let k, sys, chk = checked_kernel () in
  let src = Mach.Sched.task_create sys ~name:"donor" () in
  let dst = Mach.Sched.task_create sys ~name:"dst" () in
  let bytes = page_size in
  Test_util.run_in_thread k (fun () ->
      let a = Mach.Vm.allocate sys src ~bytes () in
      ignore (Mach.Vm.remap_move sys ~src_task:src ~addr:a ~bytes ~dst_task:dst : int);
      (* the range was donated; moving it again ships pages the task no
         longer owns *)
      ignore (Mach.Vm.remap_move sys ~src_task:src ~addr:a ~bytes ~dst_task:dst : int));
  let rep = Check.report chk in
  Alcotest.(check int) "two moves recorded" 2 (Check.count rep "remap_moves");
  Alcotest.(check int) "one double move" 1 (Check.count rep "double_moves");
  match find_kind rep "double-move" with
  | [ f ] ->
      Alcotest.(check bool) "names the task" true (contains f.Check.f_detail "donor")
  | fs ->
      Alcotest.failf "expected exactly one double-move finding, got %d"
        (List.length fs)

let[@machlint.allow "port-linearity"] test_remap_write_after_move () =
  let k, sys, chk = checked_kernel () in
  let src = Mach.Sched.task_create sys ~name:"scribbler" () in
  let dst = Mach.Sched.task_create sys ~name:"dst" () in
  let bytes = page_size in
  Test_util.run_in_thread k (fun () ->
      let a = Mach.Vm.allocate sys src ~bytes () in
      Mach.Vm.touch sys src ~addr:a ~write:true ~bytes ();
      ignore (Mach.Vm.remap_move sys ~src_task:src ~addr:a ~bytes ~dst_task:dst : int);
      (* the sender scribbles on the range it just donated *)
      Mach.Vm.touch sys src ~addr:a ~write:true ~bytes:8 ());
  let rep = Check.report chk in
  Alcotest.(check int) "one write-after-move" 1
    (Check.count rep "write_after_move");
  (match find_kind rep "write-after-move" with
  | [ f ] ->
      Alcotest.(check bool) "names the task" true
        (contains f.Check.f_detail "scribbler")
  | fs ->
      Alcotest.failf "expected exactly one write-after-move finding, got %d"
        (List.length fs));
  (* deallocating the range clears the tracking: a fresh allocation at
     the same address is innocent *)
  let k2, sys2, chk2 = checked_kernel () in
  Test_util.run_in_thread k2 (fun () ->
      let src2 = Mach.Sched.task_create sys2 ~name:"clean" () in
      let dst2 = Mach.Sched.task_create sys2 ~name:"dst" () in
      let a = Mach.Vm.allocate sys2 src2 ~bytes () in
      ignore (Mach.Vm.remap_move sys2 ~src_task:src2 ~addr:a ~bytes ~dst_task:dst2 : int);
      Mach.Vm.deallocate sys2 src2 ~addr:a;
      let b = Mach.Vm.allocate sys2 src2 ~bytes () in
      Mach.Vm.touch sys2 src2 ~addr:b ~write:true ~bytes ());
  Alcotest.(check int) "cleared range is silent" 0
    (Check.count (Check.report chk2) "write_after_move")

let test_remap_mapout_eviction () =
  let k, sys, chk = checked_kernel () in
  let t = Mach.Sched.task_create sys ~name:"fs" () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  let cache = F.Block_cache.create k disk () in
  F.Block_cache.map_pool cache t;
  Test_util.run_in_thread k (fun () ->
      (* a page mapped out WITHOUT a pin, then the ring wraps over it *)
      (match F.Block_cache.pool_acquire cache ~pages:1 ~pin:false with
      | Some _ -> ()
      | None -> Alcotest.fail "pool acquire failed");
      match F.Block_cache.pool_acquire cache ~pages:16 ~pin:false with
      | Some _ -> ()
      | None -> Alcotest.fail "wrapping acquire failed");
  let rep = Check.report chk in
  Alcotest.(check int) "one unpinned eviction" 1
    (Check.count rep "mapout_evictions");
  (match find_kind rep "mapout-eviction" with
  | [ f ] ->
      Alcotest.(check bool) "without a pin" true
        (contains f.Check.f_detail "without a pin")
  | fs ->
      Alcotest.failf "expected exactly one mapout-eviction finding, got %d"
        (List.length fs));
  (* a pinned page blocks the ring instead of being stolen *)
  let k2, sys2, chk2 = checked_kernel () in
  let t2 = Mach.Sched.task_create sys2 ~name:"fs" () in
  let disk2 = k2.Mach.Kernel.machine.Machine.disk in
  let cache2 = F.Block_cache.create k2 disk2 () in
  F.Block_cache.map_pool cache2 t2;
  Test_util.run_in_thread k2 (fun () ->
      (match F.Block_cache.pool_acquire cache2 ~pages:1 ~pin:true with
      | Some _ -> ()
      | None -> Alcotest.fail "pinned acquire failed");
      match F.Block_cache.pool_acquire cache2 ~pages:16 ~pin:false with
      | Some _ -> Alcotest.fail "whole-ring acquire stole a pinned page"
      | None -> ());
  Alcotest.(check int) "pin held: no finding" 0
    (Check.count (Check.report chk2) "mapout_evictions");
  Alcotest.(check int) "one page still pinned" 1 (F.Block_cache.pool_pinned cache2)

let test_remap_zero_copy_clean () =
  (* the file server's zero-copy read/write protocol, end to end under
     the checker: donations recorded, nothing flagged *)
  let k, sys, chk = checked_kernel () in
  let runtime = Mk_services.Runtime.install k in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Hpfs.mkfs disk ();
  let vfs = F.Vfs.create () in
  let cache = F.Block_cache.create k disk () in
  (match F.Hpfs.mount cache () with
  | Ok pfs -> (
      match F.Vfs.mount vfs ~at:"/os2" pfs with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail (F.Fs_types.fs_error_to_string e));
  let fs = F.File_server.start k runtime vfs () in
  let sem = F.Vfs.os2_semantics in
  let ok label = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" label (F.Fs_types.fs_error_to_string e)
  in
  Test_util.run_in_thread k (fun () ->
      let h =
        ok "open" (F.File_server.Client.open_ fs sem ~path:"/os2/zc" ~create:true ())
      in
      let data = Bytes.init 8192 (fun i -> Char.chr (i land 0x7f)) in
      ignore (ok "write_zc" (F.File_server.Client.write_zc fs h data) : int);
      F.File_server.Client.seek fs h ~pos:0;
      let got = ok "read_zc" (F.File_server.Client.read_zc fs h ~bytes:8192) in
      Alcotest.(check int) "round trip length" 8192 (Bytes.length got);
      F.File_server.Client.close fs h);
  ignore sys;
  let rep = Check.report chk in
  Alcotest.(check bool) "donation observed" true
    (Check.count rep "remap_moves" >= 1);
  Alcotest.(check int) "zero findings" 0 (Check.total_findings rep)

(* --- supervised restart: the dead incarnation holds nothing -------------- *)

let test_restart_zero_residual_rights () =
  let m = Machine.create Machine.Config.pentium_133 in
  let chk = Check.create () in
  Check.install chk;
  Fun.protect ~finally:Check.uninstall @@ fun () ->
  let boot = Mk_services.Bootstrap.boot m in
  let k = boot.Mk_services.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let runtime = boot.Mk_services.Bootstrap.runtime in
  let ns = Mk_services.Bootstrap.name_service_exn boot in
  let disk = m.Machine.disk in
  F.Hpfs.mkfs disk ();
  let vfs = F.Vfs.create () in
  let cache = F.Block_cache.create k disk () in
  (match F.Hpfs.mount cache () with
  | Ok pfs -> (
      match F.Vfs.mount vfs ~at:"/os2" pfs with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail (F.Fs_types.fs_error_to_string e));
  let fs = F.File_server.start k runtime vfs () in
  let sup = Mk_services.Supervisor.create k runtime ns in
  let plan = Mach.Fault.create ~seed:5 () in
  Mach.Fault.script plan ~site:"file-service" ~n:4 Mach.Fault.Crash_server;
  sys.Mach.Sched.faults <- Some plan;
  let old_port = F.File_server.port fs in
  let cached = ref (Some old_port) in
  let resolve () =
    match !cached with
    | Some p when not p.dead -> Some p
    | Some _ | None ->
        let p = Mk_services.Name_service.resolve_port ns ~path:"/services/file" in
        cached := p;
        p
  in
  (* the retry schedule must span a supervised restart, which includes
     crash recovery (fsck scan over the volume) *)
  F.File_server.set_retry fs ~attempts:8 ~deadline:1_000_000
    ~backoff:1_000_000 ~resolve ();
  let sem = F.Vfs.os2_semantics in
  let ok label = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" label (F.Fs_types.fs_error_to_string e)
  in
  Test_util.run_in_thread k (fun () ->
      Mk_services.Supervisor.supervise sup ~path:"/services/file"
        ~port:old_port
        ~restart:(fun () -> F.File_server.restart fs)
        ();
      let h = ok "open" (F.File_server.Client.open_ fs sem ~path:"/os2/a.txt" ~create:true ()) in
      ignore (ok "write" (F.File_server.Client.write fs h (Bytes.make 64 'x')) : int);
      F.File_server.Client.close fs h;
      (* request 4 crashes the server; retry finds the restarted one *)
      let h2 = ok "open after crash" (F.File_server.Client.open_ fs sem ~path:"/os2/a.txt" ()) in
      ignore (ok "read after restart" (F.File_server.Client.read fs h2 ~bytes:64) : bytes);
      F.File_server.Client.close fs h2);
  Alcotest.(check int) "one supervised restart" 1
    (Mk_services.Supervisor.restarts sup);
  let fs_task =
    match (F.File_server.port fs).receiver with
    | Some t -> t
    | None -> Alcotest.fail "restarted file server has no receiver task"
  in
  (* the regression: the dead incarnation's rights must be gone — the
     only entries the server task still shadows name live ports *)
  Alcotest.(check int) "dead incarnation holds zero rights" 0
    (Mach.Mcheck.dead_rights sys fs_task);
  let rep = Check.report chk in
  Alcotest.(check int) "no leaks anywhere after crash+restart" 0
    (Check.count rep "leaked_rights");
  Alcotest.(check int) "no findings at all" 0 (Check.total_findings rep);
  Alcotest.(check bool) "the run actually exercised the sanitizers" true
    (Check.count rep "right_transitions" > 0
    && Check.count rep "blocks_tracked" > 0)

(* --- all four workloads under Machcheck ---------------------------------- *)

let test_table1_micro_clean () =
  let chk = Check.create () in
  Check.install chk;
  Fun.protect ~finally:Check.uninstall (fun () ->
      let spec = List.nth Workloads.Table1.all 0 in
      let native =
        let m = Machine.create Machine.Config.pentium_133 in
        Workloads.Api.of_monolithic (Monolithic.boot m ~fs_format:`Hpfs ())
      in
      ignore
        (Workloads.Table1.compare_systems
           ~wpos:(Workloads.Api.of_wpos (Wpos.boot ()))
           ~native spec
          : Workloads.Table1.row);
      ignore (Workloads.Micro.table2 ~iters:20 ()));
  let rep = Check.report chk in
  Alcotest.(check int) "table1+micro: zero findings" 0
    (Check.total_findings rep);
  Alcotest.(check bool) "rights traffic was watched" true
    (Check.count rep "right_transitions" > 0)

let test_stress_workloads_clean_and_json () =
  (* the CI smoke: ipc-stress and fault-storm (its fs-crash sweep
     included) under Machcheck, failing on any finding, with the
     machine-readable BENCH_check.json shape *)
  let ipc, ipc_check =
    Check.with_checker true (fun () ->
        Workloads.Ipc_stress.run ~workers:2 ~iters:40 ~sizes:[ 0; 512 ] ())
  in
  let _, storm_check =
    Check.with_checker true (fun () ->
        Workloads.Fault_storm.run ~seed:7 ~endpoints:4 ~rounds:8
          ~victim_ops:2 ~clients:2 ~sessions:2 ())
  in
  let report name = function
    | Some r -> r
    | None -> Alcotest.failf "%s ran without a checker" name
  in
  let rep_ipc = report "ipc-stress" ipc_check in
  let rep_flt = report "fault-storm" storm_check in
  Alcotest.(check int) "ipc-stress: zero findings" 0
    (Check.total_findings rep_ipc);
  Alcotest.(check int) "fault-storm: zero findings" 0
    (Check.total_findings rep_flt);
  Alcotest.(check bool) "fault-storm tracked restarts' rights traffic" true
    (Check.count rep_flt "right_transitions" > 0);
  (* crash-loop's demotion is listed, but it is policy, not a finding *)
  Alcotest.(check (list string)) "fault-storm lists only the demotion"
    [ "budget-exhausted" ]
    (List.map (fun f -> f.Check.f_kind) rep_flt.Check.findings);
  (* the JSON the bench writes to BENCH_check.json carries per-checker
     counts *)
  let module J = Bench_json in
  List.iter
    (fun rep ->
      let j = Check.to_json rep in
      List.iter
        (fun field ->
          match J.member field j with
          | Some (J.Num n) ->
              Alcotest.(check (float 0.0)) (field ^ " is zero") 0.0 n
          | _ -> Alcotest.failf "missing numeric %s" field)
        [ "total_findings"; "leaked_rights"; "right_double_frees";
          "right_downgrades"; "wait_cycles"; "buf_double_releases";
          "buf_use_after_release" ];
      match J.member "findings" j with
      | Some (J.Arr fs) ->
          Alcotest.(check int) "findings array lists the report"
            (List.length rep.Check.findings) (List.length fs)
      | _ -> Alcotest.fail "findings array missing")
    [ rep_ipc; rep_flt ];
  (* the BENCH file embeds the same report *)
  let e = Option.get (Workloads.Experiment.find "ipc-stress") in
  let doc =
    Workloads.Experiment.document e
      { Workloads.Experiment.json = Workloads.Ipc_stress.to_json ipc;
        gates = []; check = Some rep_ipc }
  in
  match J.parse (J.to_string doc) with
  | Error e -> Alcotest.failf "ipc-stress json does not parse: %s" e
  | Ok j -> (
      match J.member "machcheck" j with
      | Some (J.Obj _) -> ()
      | _ -> Alcotest.fail "ipc-stress json lacks the machcheck section")

(* --- the report: one column per counter, the BENCH schema pinned -------- *)

(* The "machcheck" block's keys, in order.  Bench ab ignores key order,
   so only this list holds the BENCH schema fixed. *)
let finding_columns =
  [ "leaked_rights"; "right_double_frees"; "right_downgrades"; "wait_cycles";
    "buf_double_releases"; "buf_use_after_release"; "double_moves";
    "write_after_move"; "mapout_evictions"; "lost_writes"; "torn_states";
    "vnode_ref_underflows"; "vnode_use_after_reclaim"; "vnode_leaks";
    "ncache_stale"; "net_shard_crossings"; "reinc_orphans";
    "reinc_stale_registry"; "reinc_rights_residue"; "reinc_budget_exhausted";
    "lock_overlaps" ]

let machcheck_keys =
  [ "spaces"; "right_transitions"; "live_rights"; "leaked_rights";
    "right_double_frees"; "right_downgrades"; "teardown_residual";
    "blocks_tracked"; "wait_cycles"; "buffers_shadowed"; "buf_double_releases";
    "buf_use_after_release"; "remap_moves"; "double_moves"; "write_after_move";
    "mapout_evictions"; "crash_points"; "lost_writes"; "torn_states";
    "vnodes_shadowed"; "vnode_ref_underflows"; "vnode_use_after_reclaim";
    "vnode_leaks"; "ncache_shadowed"; "ncache_stale"; "net_sockets";
    "net_touches"; "net_shard_crossings"; "reinc_kills"; "reinc_reboots";
    "reinc_orphans"; "reinc_stale_registry"; "reinc_rights_residue";
    "reinc_budget_exhausted"; "lock_holds"; "lock_overlaps"; "total_findings";
    "findings" ]

let test_report_columns () =
  let c = Check.create () in
  let space = Check.new_space c in
  (* rights: a right to a dead port, a double free, a downgrade *)
  Check.right_allocated c ~space ~task:1 ~tname:"t1" ~port:1 ~pname:"p1";
  Check.port_destroyed c ~space ~port:1;
  Check.dealloc_missing c ~space ~task:1 ~tname:"t1" ~name:5;
  Check.right_inserted c ~space ~task:2 ~tname:"t2" ~port:2 ~pname:"p2"
    ~right:Check.R_receive ~now:Check.R_receive;
  Check.right_inserted c ~space ~task:2 ~tname:"t2" ~port:2 ~pname:"p2"
    ~right:Check.R_send_once ~now:Check.R_send_once;
  (* deadlock: two threads waiting on each other *)
  Check.blocked_on c ~space ~tid:1 ~tname:"a" ~cpu:0 ~rdesc:"r1"
    ~holders:[ 2 ];
  Check.blocked_on c ~space ~tid:2 ~tname:"b" ~cpu:0 ~rdesc:"r2"
    ~holders:[ 1 ];
  (* buffers: release twice, then touch *)
  Check.buf_allocated c ~space ~addr:0x100 ~bytes:64;
  Check.buf_released c ~space ~addr:0x100;
  Check.buf_released c ~space ~addr:0x100;
  Check.buf_used c ~space ~addr:0x100;
  (* remap: a double move, a write after a move, an unpinned eviction *)
  Check.remap_moved c ~space ~task:3 ~tname:"t3" ~addr:0 ~bytes:4096;
  Check.remap_moved c ~space ~task:3 ~tname:"t3" ~addr:0 ~bytes:4096;
  Check.remap_moved c ~space ~task:4 ~tname:"t4" ~addr:0 ~bytes:4096;
  Check.remap_write c ~space ~task:4 ~addr:0 ~bytes:8;
  Check.cache_mapped_out c ~space ~addr:0x2000 ~pinned:false;
  Check.cache_reused c ~space ~addr:0x2000 ~tag:"blk";
  (* crash consistency *)
  Check.crash_lost_write c ~space "lost";
  Check.crash_torn_state c ~space "torn";
  (* vnodes and the name cache *)
  Check.vnode_unref c ~space ~mount:1 ~file:1;
  Check.vnode_reclaimed c ~space ~mount:1 ~file:2;
  Check.vnode_used c ~space ~mount:1 ~file:2 ~op:"read";
  Check.vnode_active c ~space ~mount:2 ~file:1;
  Check.vnode_ref c ~space ~mount:2 ~file:1;
  Check.vnode_mount_recovered c ~space ~mount:2;
  Check.ncache_stored c ~space ~mount:1 ~dir:0 ~name:"x" ~file:3;
  Check.vnode_reclaimed c ~space ~mount:1 ~file:3;
  Check.ncache_hit c ~space ~mount:1 ~dir:0 ~name:"x";
  (* netisr shards and reincarnation *)
  Check.net_socket_home c ~space ~sock:1 ~shard:0;
  Check.net_touched c ~space ~sock:1 ~home:0 ~shard:1;
  Check.reinc_shard_killed c ~space ~shard:0;
  Check.reinc_expect c ~space ~shard:0 ~sock:7;
  Check.reinc_shard_reborn c ~space ~shard:0;
  Check.reinc_restored c ~space ~shard:1 ~sock:9;
  Check.reinc_rights_residue c ~space ~shard:1 ~port:3 ~pname:"p3";
  Check.reinc_budget_exhausted c ~space ~path:"/services/x" ~restarts:3;
  (* locks: an exclusive hold overlapping another thread's shared one *)
  Check.lock_hold c ~space ~res:"l" ~rdesc:"l" ~tid:1 ~cpu:0 ~exclusive:false
    ~from:100 ~until:200;
  Check.lock_hold c ~space ~res:"l" ~rdesc:"l" ~tid:2 ~cpu:1 ~exclusive:true
    ~from:150 ~until:250;
  let rep = Check.report c in
  List.iter
    (fun col -> Alcotest.(check int) col 1 (Check.count rep col))
    finding_columns;
  Alcotest.(check int) "twenty-one findings" 21
    (List.length rep.Check.findings);
  Alcotest.(check int) "all but budget-exhausted are findings" 20
    (Check.total_findings rep);
  match Check.to_json rep with
  | Bench_json.Obj fields ->
      Alcotest.(check (list string)) "machcheck block keys" machcheck_keys
        (List.map fst fields)
  | _ -> Alcotest.fail "machcheck block is not an object"

let suite =
  [
    Alcotest.test_case "report: every finding kind has one column" `Quick
      test_report_columns;
    Alcotest.test_case "rights: leaked right detected+named" `Quick
      test_leaked_right;
    Alcotest.test_case "rights: double free detected" `Quick test_double_free;
    Alcotest.test_case "rights: downgrade detected" `Quick test_downgrade;
    Alcotest.test_case "deadlock: AB-BA mutex cycle dumped" `Quick
      test_mutex_abba_cycle;
    Alcotest.test_case "deadlock: self-RPC cycle dumped" `Quick
      test_self_rpc_cycle;
    Alcotest.test_case "deadlock: port death leaves no stale edges" `Quick
      test_port_death_clears_edges;
    Alcotest.test_case "deadlock: fault kill leaves no stale edges" `Quick
      test_fault_kill_clears_edges;
    Alcotest.test_case "deadlock: wrong-holder unlock audited" `Quick
      test_wrong_holder_unlock_audited;
    Alcotest.test_case "buffers: double release detected" `Quick
      test_buffer_double_release;
    Alcotest.test_case "buffers: use after release detected" `Quick
      test_buffer_use_after_release;
    Alcotest.test_case "buffers: sustained traffic clean" `Quick
      test_buffer_clean_traffic;
    Alcotest.test_case "remap: double move detected" `Quick
      test_remap_double_move;
    Alcotest.test_case "remap: write after move detected" `Quick
      test_remap_write_after_move;
    Alcotest.test_case "remap: unpinned mapout eviction detected" `Quick
      test_remap_mapout_eviction;
    Alcotest.test_case "remap: zero-copy file protocol clean" `Quick
      test_remap_zero_copy_clean;
    Alcotest.test_case "restart leaves zero residual rights" `Quick
      test_restart_zero_residual_rights;
    Alcotest.test_case "table1+micro clean under machcheck" `Quick
      test_table1_micro_clean;
    Alcotest.test_case "stress workloads clean + BENCH_check json" `Quick
      test_stress_workloads_clean_and_json;
  ]
