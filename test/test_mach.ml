(* Unit and integration tests for the microkernel. *)

open Mach.Ktypes

let kr : kern_return Alcotest.testable =
  Alcotest.testable
    (fun ppf k -> Format.pp_print_string ppf (kern_return_to_string k))
    ( = )

(* --- scheduler ---------------------------------------------------------- *)

let test_spawn_run () =
  let k = Test_util.kernel_on () in
  let hits = ref 0 in
  let task = Mach.Kernel.task_create k ~name:"t" () in
  Test_util.spawn k task "a" (fun () -> incr hits);
  Test_util.spawn k task "b" (fun () -> incr hits);
  Mach.Kernel.run k;
  Alcotest.(check int) "both ran" 2 !hits

let test_yield_interleaves () =
  let k = Test_util.kernel_on () in
  let log = ref [] in
  let task = Mach.Kernel.task_create k ~name:"t" () in
  Test_util.spawn k task "a" (fun () ->
      log := "a1" :: !log;
      Mach.Sched.yield ();
      log := "a2" :: !log);
  Test_util.spawn k task "b" (fun () ->
      log := "b1" :: !log;
      Mach.Sched.yield ();
      log := "b2" :: !log);
  Mach.Kernel.run k;
  Alcotest.(check (list string)) "round robin" [ "b2"; "a2"; "b1"; "a1" ] !log

let test_block_wake () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let task = Mach.Kernel.task_create k ~name:"t" () in
  let waiter = ref None in
  let result = ref Kern_aborted in
  Test_util.spawn k task "sleeper" (fun () ->
      waiter := Some (Mach.Sched.self ());
      result := Mach.Sched.block "test-wait");
  Test_util.spawn k task "waker" (fun () ->
      match !waiter with
      | Some th -> Mach.Sched.wake sys ~result:Kern_timed_out th
      | None -> Alcotest.fail "sleeper did not run first");
  Mach.Kernel.run k;
  Alcotest.check kr "wake result propagates" Kern_timed_out !result

let test_self () =
  let k = Test_util.kernel_on () in
  let name =
    Test_util.run_in_thread k (fun () -> (Mach.Sched.self ()).tname)
  in
  Alcotest.(check string) "self works" "test" name

(* Outside any thread, await steps device events: a one-block read
   costs the boot CPU one seek plus one block, and a wait that nothing
   can complete fails naming its reason. *)
let test_await_outside_thread () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let disk = m.Machine.disk in
  Machine.Disk.write_image disk ~block:9 (Bytes.make 512 'z');
  let t0 = Machine.Cpu.now m.Machine.cpu in
  let data =
    Mach.Sched.await sys "test-read" (Machine.Disk.read disk ~block:9 ~count:1)
  in
  Alcotest.(check bytes) "the block read" (Bytes.make 512 'z') data;
  let g = Machine.Disk.geometry disk in
  Alcotest.(check int) "the boot CPU paid for it"
    (g.Machine.Disk.seek_cycles + g.Machine.Disk.transfer_cycles_per_block)
    (Machine.Cpu.now m.Machine.cpu - t0);
  match Mach.Sched.await sys "test-never" (fun (_ : unit -> unit) -> ()) with
  | () -> Alcotest.fail "an await with no completion returned"
  | exception Failure msg ->
      Alcotest.(check bool) "the failure names the wait" true
        (Test_util.contains msg "test-never")

let test_switch_charges_address_space () =
  let k = Test_util.kernel_on () in
  let m = k.Mach.Kernel.machine in
  let t1 = Mach.Kernel.task_create k ~name:"t1" () in
  let t2 = Mach.Kernel.task_create k ~name:"t2" () in
  Test_util.spawn k t1 "a" (fun () -> Mach.Sched.yield ());
  Test_util.spawn k t2 "b" (fun () -> Mach.Sched.yield ());
  let before = Machine.Perf.snapshot (Machine.Cpu.perf m.Machine.cpu) in
  Mach.Kernel.run k;
  let d =
    Machine.Perf.diff (Machine.Perf.snapshot (Machine.Cpu.perf m.Machine.cpu)) before
  in
  Alcotest.(check bool) "cross-task dispatches flush" true
    (d.Machine.Perf.address_space_switches >= 2)

(* --- ports -------------------------------------------------------------- *)

let test_port_rights () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let a = Mach.Kernel.task_create k ~name:"a" () in
  let b = Mach.Kernel.task_create k ~name:"b" () in
  let p = Mach.Port.allocate sys ~receiver:a ~name:"svc" in
  Alcotest.(check int) "receiver has the receive right" 1 (Mach.Port.rights_held a);
  let name = Mach.Port.insert_right sys b p Send_right in
  (match Mach.Port.lookup b name with
  | Some entry ->
      Alcotest.(check bool) "entry names the port" true (entry.re_port == p)
  | None -> Alcotest.fail "no entry");
  let name2 = Mach.Port.insert_right sys b p Send_right in
  Alcotest.(check int) "same name reused" name name2;
  Alcotest.check kr "dealloc" Kern_success (Mach.Port.deallocate_right sys b name);
  Alcotest.check kr "refcount survives one dealloc" Kern_success
    (Mach.Port.deallocate_right sys b name);
  Alcotest.check kr "gone" Kern_invalid_name (Mach.Port.deallocate_right sys b name)

let test_port_destroy_wakes () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let a = Mach.Kernel.task_create k ~name:"a" () in
  let p = Mach.Port.allocate sys ~receiver:a ~name:"svc" in
  let got = ref None in
  Test_util.spawn k a "server" (fun () ->
      got := Some (Mach.Rpc.receive sys p));
  Test_util.spawn k a "killer" (fun () -> Mach.Port.destroy sys p);
  Mach.Kernel.run k;
  match !got with
  | Some (Error e) -> Alcotest.check kr "dead port" Kern_port_dead e
  | Some (Ok _) -> Alcotest.fail "receive succeeded on dead port"
  | None -> Alcotest.fail "receive never returned"

(* --- RPC ---------------------------------------------------------------- *)

let test_rpc_roundtrip () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let server = Mach.Kernel.task_create k ~name:"server" () in
  let p = Mach.Port.allocate sys ~receiver:server ~name:"echo" in
  Test_util.spawn k server "srv" (fun () ->
      Mach.Rpc.serve sys p (fun req ->
          match req.msg_payload with
          | P_int n -> simple_message ~inline_bytes:8 ~payload:(P_int (n * 2)) ()
          | _ -> simple_message ~payload:(P_error Kern_invalid_argument) ()));
  let client = Mach.Kernel.task_create k ~name:"client" () in
  let results = ref [] in
  Test_util.spawn k client "cl" (fun () ->
      for i = 1 to 5 do
        match
          Mach.Rpc.call sys p
            (simple_message ~inline_bytes:8 ~payload:(P_int i) ())
        with
        | Ok reply -> (
            match reply.msg_payload with
            | P_int n -> results := n :: !results
            | _ -> Alcotest.fail "bad payload")
        | Error e -> Alcotest.fail (kern_return_to_string e)
      done;
      Mach.Port.destroy sys p);
  Mach.Kernel.run k;
  Alcotest.(check (list int)) "doubled" [ 10; 8; 6; 4; 2 ] !results

let test_rpc_call_dead_port () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let server = Mach.Kernel.task_create k ~name:"server" () in
  let p = Mach.Port.allocate sys ~receiver:server ~name:"x" in
  Mach.Port.destroy sys p;
  let r =
    Test_util.run_in_thread k (fun () -> Mach.Rpc.call sys p (simple_message ()))
  in
  match r with
  | Error e -> Alcotest.check kr "dead" Kern_port_dead e
  | Ok _ -> Alcotest.fail "call to dead port succeeded"

let test_rpc_queues_clients () =
  (* two clients calling before any server exists: calls pend as blocked
     threads (no message queue), then drain in order *)
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let server = Mach.Kernel.task_create k ~name:"server" () in
  let p = Mach.Port.allocate sys ~receiver:server ~name:"late" in
  let served = ref [] in
  let c1 = Mach.Kernel.task_create k ~name:"c1" () in
  let c2 = Mach.Kernel.task_create k ~name:"c2" () in
  let call tag () =
    match
      Mach.Rpc.call sys p (simple_message ~payload:(P_string tag) ())
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (kern_return_to_string e)
  in
  Test_util.spawn k c1 "c1" (call "one");
  Test_util.spawn k c2 "c2" (call "two");
  Test_util.spawn k server "srv" (fun () ->
      for _ = 1 to 2 do
        match Mach.Rpc.receive sys p with
        | Ok rx ->
            (match rx.rx_request.msg_payload with
            | P_string s -> served := s :: !served
            | _ -> ());
            Mach.Rpc.reply sys rx (simple_message ())
        | Error e -> Alcotest.fail (kern_return_to_string e)
      done);
  Mach.Kernel.run k;
  Alcotest.(check (list string)) "FIFO service" [ "two"; "one" ] !served

(* --- Mach 3.0 IPC ------------------------------------------------------- *)

let test_ipc_send_receive () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let a = Mach.Kernel.task_create k ~name:"a" () in
  let b = Mach.Kernel.task_create k ~name:"b" () in
  let p = Mach.Port.allocate sys ~receiver:b ~name:"q" in
  let got = ref [] in
  Test_util.spawn k a "sender" (fun () ->
      for i = 1 to 3 do
        Alcotest.check kr "send"
          Kern_success
          (Mach.Ipc.send sys p
             (simple_message ~inline_bytes:16 ~payload:(P_int i) ()))
      done);
  Test_util.spawn k b "receiver" (fun () ->
      for _ = 1 to 3 do
        match Mach.Ipc.receive sys p with
        | Ok msg -> (
            match msg.msg_payload with
            | P_int i -> got := i :: !got
            | _ -> ())
        | Error e -> Alcotest.fail (kern_return_to_string e)
      done);
  Mach.Kernel.run k;
  Alcotest.(check (list int)) "in order" [ 3; 2; 1 ] !got

let test_ipc_queue_limit_blocks_sender () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let a = Mach.Kernel.task_create k ~name:"a" () in
  let b = Mach.Kernel.task_create k ~name:"b" () in
  let p = Mach.Port.allocate sys ~receiver:b ~name:"q" in
  p.q_limit <- 2;
  let sent = ref 0 in
  let received = ref 0 in
  Test_util.spawn k a "sender" (fun () ->
      for _ = 1 to 4 do
        ignore (Mach.Ipc.send sys p (simple_message ()) : kern_return);
        incr sent
      done);
  Test_util.spawn k b "receiver" (fun () ->
      (* let the sender fill the queue first *)
      Mach.Sched.yield ();
      for _ = 1 to 4 do
        ignore (Mach.Ipc.receive sys p);
        incr received
      done);
  Mach.Kernel.run k;
  Alcotest.(check int) "all sent" 4 !sent;
  Alcotest.(check int) "all received" 4 !received

let test_ipc_call_via_reply_port () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let server = Mach.Kernel.task_create k ~name:"server" () in
  let p = Mach.Port.allocate sys ~receiver:server ~name:"svc" in
  Test_util.spawn k server "srv" (fun () ->
      for _ = 1 to 2 do
        ignore
          (Mach.Ipc.serve_one sys p (fun req ->
               match req.msg_payload with
               | P_int n -> simple_message ~payload:(P_int (n + 1)) ()
               | _ -> simple_message ())
            : kern_return)
      done);
  let client = Mach.Kernel.task_create k ~name:"client" () in
  let out = ref [] in
  Test_util.spawn k client "cl" (fun () ->
      for i = 0 to 1 do
        match Mach.Ipc.call sys p (simple_message ~payload:(P_int i) ()) with
        | Ok reply -> (
            match reply.msg_payload with
            | P_int n -> out := n :: !out
            | _ -> ())
        | Error e -> Alcotest.fail (kern_return_to_string e)
      done);
  Mach.Kernel.run k;
  Alcotest.(check (list int)) "incremented" [ 2; 1 ] !out

let test_ipc_ool_virtual_copy () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let a = Mach.Kernel.task_create k ~name:"a" () in
  let b = Mach.Kernel.task_create k ~name:"b" () in
  let p = Mach.Port.allocate sys ~receiver:b ~name:"q" in
  let entries_before = Mach.Vm.entry_count b in
  Test_util.spawn k a "sender" (fun () ->
      let buf = Mach.Vm.allocate sys a ~bytes:(16 * 1024) () in
      Mach.Vm.touch sys a ~addr:buf ~write:true ~bytes:(16 * 1024) ();
      ignore
        (Mach.Ipc.send sys p
           (simple_message ~ool:[ (buf, 16 * 1024) ] ())
          : kern_return));
  let faults_after_touch = ref 0 in
  Test_util.spawn k b "receiver" (fun () ->
      match Mach.Ipc.receive sys p with
      | Ok msg -> (
          match msg.msg_ool with
          | [ r ] ->
              (* reads go through the still-resident source pages; writes
                 must materialise private copies, one fault per page *)
              Mach.Vm.touch sys b ~addr:r.ool_addr ~bytes:r.ool_bytes ();
              let f0 = Mach.Vm.page_faults sys in
              Mach.Vm.touch sys b ~addr:r.ool_addr ~write:true
                ~bytes:r.ool_bytes ();
              faults_after_touch := Mach.Vm.page_faults sys - f0
          | _ -> Alcotest.fail "expected one OOL region")
      | Error e -> Alcotest.fail (kern_return_to_string e));
  Mach.Kernel.run k;
  Alcotest.(check int) "a mapping appeared" (entries_before + 1)
    (Mach.Vm.entry_count b);
  Alcotest.(check int) "COW write faults, one per page" 4 !faults_after_touch

(* --- VM ------------------------------------------------------------------ *)

let test_vm_alloc_touch () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  Test_util.run_in_thread k (fun () ->
      let addr = Mach.Vm.allocate sys t ~bytes:8192 () in
      let f0 = Mach.Vm.page_faults sys in
      Mach.Vm.touch sys t ~addr ~write:true ~bytes:8192 ();
      Alcotest.(check int) "two zero-fill faults" 2 (Mach.Vm.page_faults sys - f0);
      Mach.Vm.touch sys t ~addr ~bytes:8192 ();
      Alcotest.(check int) "warm: no more faults" 2 (Mach.Vm.page_faults sys - f0))

let test_vm_eager_commit () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  let r0 = Mach.Vm.resident_pages sys in
  let _addr = Mach.Vm.allocate sys t ~bytes:(8 * 4096) ~eager:true () in
  Alcotest.(check int) "committed up front" (r0 + 8) (Mach.Vm.resident_pages sys);
  Alcotest.(check bool) "counts as committed" true
    (Mach.Vm.committed_bytes t >= 8 * 4096)

let test_vm_protection () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  Test_util.run_in_thread k (fun () ->
      let obj = Mach.Vm.object_create sys ~bytes:4096 () in
      let addr = Mach.Vm.map_object sys t obj ~bytes:4096 ~prot:prot_ro () in
      Mach.Vm.touch sys t ~addr ~bytes:100 ();
      match Mach.Vm.touch sys t ~addr ~write:true ~bytes:100 () with
      | () -> Alcotest.fail "write to read-only memory succeeded"
      | exception Kern_error Kern_protection_failure -> ())

let test_vm_unmapped () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  Test_util.run_in_thread k (fun () ->
      match Mach.Vm.touch sys t ~addr:0x7000_0000 ~bytes:4 () with
      | () -> Alcotest.fail "unmapped touch succeeded"
      | exception Kern_error Kern_invalid_argument -> ())

let test_vm_coerced () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let a = Mach.Kernel.task_create k ~name:"a" () in
  let b = Mach.Kernel.task_create k ~name:"b" () in
  let addr = Mach.Vm.allocate_coerced sys [ a; b ] ~bytes:4096 in
  Test_util.run_in_thread k (fun () ->
      (* same address valid in both maps, backed by one object *)
      Mach.Vm.touch sys a ~addr ~write:true ~bytes:64 ();
      Mach.Vm.touch sys b ~addr ~bytes:64 ());
  match (Mach.Vm.find_entry a.vm addr, Mach.Vm.find_entry b.vm addr) with
  | Some ea, Some eb ->
      Alcotest.(check bool) "one object" true (ea.ent_obj == eb.ent_obj);
      Alcotest.(check bool) "coerced flag" true (ea.ent_coerced && eb.ent_coerced)
  | _ -> Alcotest.fail "mapping missing"

let test_vm_cow_write_fault () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let a = Mach.Kernel.task_create k ~name:"a" () in
  let b = Mach.Kernel.task_create k ~name:"b" () in
  Test_util.run_in_thread k (fun () ->
      let src = Mach.Vm.allocate sys a ~bytes:8192 () in
      Mach.Vm.touch sys a ~addr:src ~write:true ~bytes:8192 ();
      let dst = Mach.Vm.virtual_copy sys ~src_task:a ~addr:src ~bytes:8192 ~dst_task:b in
      let f0 = Mach.Vm.page_faults sys in
      (* writing the copy forces private page copies *)
      Mach.Vm.touch sys b ~addr:dst ~write:true ~bytes:8192 ();
      Alcotest.(check int) "one COW fault per page" 2 (Mach.Vm.page_faults sys - f0))

(* --- synchronizers, clocks, io ------------------------------------------- *)

let test_semaphore_producer_consumer () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  let sem = Mach.Sync.semaphore_create sys ~name:"items" ~value:0 in
  let consumed = ref 0 in
  Test_util.spawn k t "consumer" (fun () ->
      for _ = 1 to 3 do
        ignore (Mach.Sync.semaphore_wait sys sem : kern_return);
        incr consumed
      done);
  Test_util.spawn k t "producer" (fun () ->
      for _ = 1 to 3 do
        Mach.Sync.semaphore_signal sys sem;
        Mach.Sched.yield ()
      done);
  Mach.Kernel.run k;
  Alcotest.(check int) "all consumed" 3 !consumed

let test_mutex_exclusion () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  let m = Mach.Sync.mutex_create sys ~name:"m" in
  let in_section = ref 0 in
  let max_in_section = ref 0 in
  let worker () =
    for _ = 1 to 3 do
      Mach.Sync.mutex_lock sys m;
      incr in_section;
      max_in_section := max !max_in_section !in_section;
      Mach.Sched.yield ();
      decr in_section;
      Mach.Sync.mutex_unlock sys m
    done
  in
  Test_util.spawn k t "w1" worker;
  Test_util.spawn k t "w2" worker;
  Mach.Kernel.run k;
  Alcotest.(check int) "mutual exclusion" 1 !max_in_section

let test_mutex_wrong_owner () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let m = Mach.Sync.mutex_create sys ~name:"m" in
  Test_util.run_in_thread k (fun () ->
      match Mach.Sync.mutex_unlock sys m with
      | () -> Alcotest.fail "unlock of unowned mutex succeeded"
      | exception Kern_error Kern_invalid_argument -> ())

let test_event_broadcast () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  let e = Mach.Sync.event_create sys ~name:"go" in
  let woken = ref 0 in
  for i = 1 to 3 do
    Test_util.spawn k t (Printf.sprintf "w%d" i) (fun () ->
        ignore (Mach.Sync.event_wait sys e : kern_return);
        incr woken)
  done;
  Test_util.spawn k t "bcast" (fun () ->
      Mach.Sched.yield ();
      Mach.Sync.event_broadcast sys e);
  Mach.Kernel.run k;
  Alcotest.(check int) "all woken" 3 !woken

let test_semaphore_timeout () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let task = Mach.Kernel.task_create k ~name:"t" () in
  let sem = Mach.Sync.semaphore_create sys ~name:"never" ~value:0 in
  let outcome = ref Kern_success in
  Test_util.spawn k task "waiter" (fun () ->
      outcome := Mach.Sync.semaphore_wait_timeout sys sem ~timeout:10_000);
  Mach.Kernel.run k;
  Alcotest.check kr "timed out" Kern_timed_out !outcome;
  (* and the signalled case beats the deadline *)
  let sem2 = Mach.Sync.semaphore_create sys ~name:"soon" ~value:0 in
  let outcome2 = ref Kern_timed_out in
  Test_util.spawn k task "waiter2" (fun () ->
      outcome2 := Mach.Sync.semaphore_wait_timeout sys sem2 ~timeout:1_000_000);
  Test_util.spawn k task "signaller" (fun () ->
      Mach.Sync.semaphore_signal sys sem2);
  Mach.Kernel.run k;
  Alcotest.check kr "signal wins" Kern_success !outcome2

(* A waiter that gave up on a timeout must leave the wait queue.  Thread
   A times out on the primitive and then sleeps 1M cycles; B waits on it;
   C signals it.  The signal belongs to B: if A's stale entry absorbs
   it, A's sleep is cut short and B sleeps forever. *)
type sync_prim = {
  timed_wait : cycles:int -> kern_return;
  wait : unit -> kern_return;
  signal : unit -> unit;
  residue : unit -> int * int;  (* value, waiters after the run *)
}

let check_no_lost_wakeup make () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let task = Mach.Kernel.task_create k ~name:"t" () in
  let p = make sys in
  let a_timeout = ref Kern_success and a_sleep = ref (Kern_aborted, 0) in
  let b_done = ref None and signalled_at = ref 0 in
  Test_util.spawn k task "a" (fun () ->
      a_timeout := p.timed_wait ~cycles:10_000;
      let t0 = Machine.now m in
      let r = Mach.Clock.sleep_for sys ~cycles:1_000_000 in
      a_sleep := (r, Machine.now m - t0));
  Test_util.spawn k task "b" (fun () ->
      ignore (Mach.Clock.sleep_for sys ~cycles:20_000 : kern_return);
      let r = p.wait () in
      b_done := Some (r, Machine.now m));
  Test_util.spawn k task "c" (fun () ->
      ignore (Mach.Clock.sleep_for sys ~cycles:50_000 : kern_return);
      signalled_at := Machine.now m;
      p.signal ());
  Mach.Kernel.run k;
  Alcotest.check kr "A timed out" Kern_timed_out !a_timeout;
  (match !b_done with
  | Some (r, at) ->
      Alcotest.check kr "B woken by the signal" Kern_success r;
      Alcotest.(check bool) "B completes at C's signal" true
        (at >= !signalled_at && at - !signalled_at < 20_000)
  | None -> Alcotest.fail "B never completed");
  let r, slept = !a_sleep in
  Alcotest.check kr "A's sleep not interrupted" Kern_success r;
  Alcotest.(check bool) "A sleeps its full 1M cycles" true (slept >= 1_000_000);
  Alcotest.(check (pair int int)) "value 0, no waiters left" (0, 0)
    (p.residue ())

let semaphore_prim sys =
  let s = Mach.Sync.semaphore_create sys ~name:"s" ~value:0 in
  {
    timed_wait =
      (fun ~cycles -> Mach.Sync.semaphore_wait_timeout sys s ~timeout:cycles);
    wait = (fun () -> Mach.Sync.semaphore_wait sys s);
    signal = (fun () -> Mach.Sync.semaphore_signal sys s);
    residue =
      (fun () -> (Mach.Sync.semaphore_value s, Mach.Sync.semaphore_waiters s));
  }

let event_prim sys =
  let e = Mach.Sync.event_create sys ~name:"e" in
  let wait () = Mach.Sync.event_wait sys e in
  {
    timed_wait = (fun ~cycles -> Mach.Clock.with_deadline sys ~cycles wait);
    wait;
    signal = (fun () -> Mach.Sync.event_signal sys e);
    residue = (fun () -> (0, Mach.Sync.event_waiters e));
  }

let test_clock_sleep () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let elapsed =
    Test_util.run_in_thread k (fun () ->
        let t0 = Machine.now m in
        ignore (Mach.Clock.sleep_for sys ~cycles:50_000 : kern_return);
        Machine.now m - t0)
  in
  Alcotest.(check bool) "slept at least the requested time" true
    (elapsed >= 50_000)

let test_periodic_timer () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let fired = ref 0 in
  let timer = Mach.Clock.arm_periodic sys ~every:10_000 ~count:5 (fun () -> incr fired) in
  Test_util.run_in_thread k (fun () ->
      ignore (Mach.Clock.sleep_for sys ~cycles:200_000 : kern_return));
  Alcotest.(check int) "five firings" 5 !fired;
  Alcotest.(check int) "counter matches" 5 (Mach.Clock.fired timer)

let test_user_level_interrupt_reflection () =
  let k = Test_util.kernel_on () in
  let io = k.Mach.Kernel.io in
  let m = k.Mach.Kernel.machine in
  let t = Mach.Kernel.task_create k ~name:"driver" () in
  Mach.Io.attach_user_handler io ~line:7 ~name:"dev7";
  let handled = ref 0 in
  Test_util.spawn k t "intr-thread" (fun () ->
      for _ = 1 to 2 do
        ignore (Mach.Io.next_interrupt io ~line:7 : kern_return);
        incr handled
      done);
  Machine.Event_queue.schedule m.Machine.events ~at:1000 (fun () ->
      Machine.Irq.raise_line m.Machine.irq 7);
  Machine.Event_queue.schedule m.Machine.events ~at:2000 (fun () ->
      Machine.Irq.raise_line m.Machine.irq 7);
  Mach.Kernel.run k;
  Alcotest.(check int) "both reflected" 2 !handled

let test_dma_transfer () =
  let k = Test_util.kernel_on () in
  let io = k.Mach.Kernel.io in
  let done_ = ref false in
  let ch = Mach.Io.dma_open io ~channel:1 in
  Mach.Io.dma_transfer io ch ~bytes:4096 (fun () -> done_ := true);
  Mach.Kernel.run k;
  Alcotest.(check bool) "completion fired" true !done_

let test_trap_thread_self () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let tid =
    Test_util.run_in_thread k (fun () -> (Mach.Trap.thread_self sys).tid)
  in
  Alcotest.(check bool) "returns the current thread" true (tid > 0)

let test_host_info () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let hi = Mach.Host.host_info sys in
  Alcotest.(check int) "uniprocessor" 1 hi.Mach.Host.processors;
  Alcotest.(check int) "16 MB" (16 * 1024 * 1024) hi.Mach.Host.memory_bytes;
  let k4 =
    Test_util.kernel_on
      ~config:(Machine.Config.with_ncpus Machine.Config.ppc604_133 ~n:4)
      ()
  in
  let hi4 = Mach.Host.host_info k4.Mach.Kernel.sys in
  Alcotest.(check int) "4-CPU ppc604" 4 hi4.Mach.Host.processors

let test_processor_sets () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let ps = Mach.Host.pset_create sys ~name:"batch" in
  Alcotest.(check string) "named" "batch" (Mach.Host.pset_name ps);
  let t = Mach.Kernel.task_create k ~name:"worker" () in
  Mach.Host.assign_task sys ps t;
  Mach.Host.assign_task sys ps t;
  Alcotest.(check (list string)) "assigned once" [ "worker" ]
    (List.map (fun t -> t.task_name) (Mach.Host.pset_tasks ps));
  let d = Mach.Host.default_pset sys in
  Alcotest.(check string) "default set" "default" (Mach.Host.pset_name d);
  Alcotest.(check bool) "stable per system" true
    (d == Mach.Host.default_pset sys);
  let other = (Test_util.kernel_on ()).Mach.Kernel.sys in
  Alcotest.(check bool) "each system has its own" false
    (d == Mach.Host.default_pset other)

(* The default set lives in the system's own state: once the system is
   dropped, nothing keeps it reachable. *)
let test_default_pset_released () =
  let w = Weak.create 1 in
  let[@inline never] boot_and_drop () =
    let k = Test_util.kernel_on () in
    ignore (Mach.Host.default_pset k.Mach.Kernel.sys : Mach.Host.processor_set);
    Weak.set w 0 (Some k.Mach.Kernel.sys)
  in
  boot_and_drop ();
  Gc.full_major ();
  Alcotest.(check bool) "system collected" false (Weak.check w 0)

(* An interrupt with no parked driver thread is kept pending; once the
   line is detached it no longer reflects at all. *)
let test_reflection_pending_and_detach () =
  let k = Test_util.kernel_on () in
  let io = k.Mach.Kernel.io in
  let irq = k.Mach.Kernel.machine.Machine.irq in
  Mach.Io.attach_user_handler io ~line:7 ~name:"dev7";
  Machine.Irq.raise_line irq 7;
  Alcotest.(check int) "pending" 1 (Mach.Io.pending_reflections io ~line:7);
  Mach.Io.detach io ~line:7;
  let spurious = Machine.Irq.spurious irq in
  Machine.Irq.raise_line irq 7;
  Alcotest.(check int) "detached" 0 (Mach.Io.pending_reflections io ~line:7);
  Alcotest.(check int) "no handler left" (spurious + 1)
    (Machine.Irq.spurious irq)

let suite =
  [
    Alcotest.test_case "spawn+run" `Quick test_spawn_run;
    Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
    Alcotest.test_case "block/wake" `Quick test_block_wake;
    Alcotest.test_case "self" `Quick test_self;
    Alcotest.test_case "await outside a thread steps device events" `Quick
      test_await_outside_thread;
    Alcotest.test_case "AS switch charged" `Quick test_switch_charges_address_space;
    Alcotest.test_case "port rights" `Quick test_port_rights;
    Alcotest.test_case "port destroy wakes" `Quick test_port_destroy_wakes;
    Alcotest.test_case "rpc roundtrip" `Quick test_rpc_roundtrip;
    Alcotest.test_case "rpc dead port" `Quick test_rpc_call_dead_port;
    Alcotest.test_case "rpc queues clients" `Quick test_rpc_queues_clients;
    Alcotest.test_case "ipc send/receive" `Quick test_ipc_send_receive;
    Alcotest.test_case "ipc queue limit" `Quick test_ipc_queue_limit_blocks_sender;
    Alcotest.test_case "ipc reply-port call" `Quick test_ipc_call_via_reply_port;
    Alcotest.test_case "ipc OOL virtual copy" `Quick test_ipc_ool_virtual_copy;
    Alcotest.test_case "vm alloc+touch" `Quick test_vm_alloc_touch;
    Alcotest.test_case "vm eager commit" `Quick test_vm_eager_commit;
    Alcotest.test_case "vm protection" `Quick test_vm_protection;
    Alcotest.test_case "vm unmapped" `Quick test_vm_unmapped;
    Alcotest.test_case "vm coerced" `Quick test_vm_coerced;
    Alcotest.test_case "vm COW write fault" `Quick test_vm_cow_write_fault;
    Alcotest.test_case "semaphore" `Quick test_semaphore_producer_consumer;
    Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
    Alcotest.test_case "mutex wrong owner" `Quick test_mutex_wrong_owner;
    Alcotest.test_case "event broadcast" `Quick test_event_broadcast;
    Alcotest.test_case "semaphore timeout" `Quick test_semaphore_timeout;
    Alcotest.test_case "timed-out semaphore waiter loses no wakeup" `Quick
      (check_no_lost_wakeup semaphore_prim);
    Alcotest.test_case "timed-out event waiter loses no wakeup" `Quick
      (check_no_lost_wakeup event_prim);
    Alcotest.test_case "clock sleep" `Quick test_clock_sleep;
    Alcotest.test_case "periodic timer" `Quick test_periodic_timer;
    Alcotest.test_case "user interrupt reflection" `Quick
      test_user_level_interrupt_reflection;
    Alcotest.test_case "dma transfer" `Quick test_dma_transfer;
    Alcotest.test_case "trap thread_self" `Quick test_trap_thread_self;
    Alcotest.test_case "host info" `Quick test_host_info;
    Alcotest.test_case "processor sets" `Quick test_processor_sets;
    Alcotest.test_case "default pset released with its system" `Quick
      test_default_pset_released;
    Alcotest.test_case "reflection pending and detach" `Quick
      test_reflection_pending_and_detach;
  ]
