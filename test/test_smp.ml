(* The SMP machine and the per-CPU scheduler: deterministic N-CPU
   interleaving, work stealing, affinity, cross-CPU wakeups over the
   scheduler message queues, the Machcheck cross-CPU cycle annotation,
   and the per-CPU machine-state accounting. *)

open Mach.Ktypes

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let contains = Test_util.contains

let smp_config n = Machine.Config.with_ncpus Machine.Config.pentium_133 ~n

(* --- determinism --------------------------------------------------------- *)

let test_deterministic_interleaving () =
  (* the whole scaling sweep, twice: every simulated number must agree
     run to run — N-CPU dispatch order is a pure function of the clocks *)
  let run () =
    let r =
      Workloads.Smp_scaling.run ~cpus:[ 2; 4 ] ~pairs:3 ~iters:8 ~bytes:128
        ~clients:2 ~sessions:1 ()
    in
    List.map
      (fun (p : Workloads.Smp_scaling.point) ->
        ( p.Workloads.Smp_scaling.sp_wall_cycles,
          p.Workloads.Smp_scaling.sp_ipis,
          p.Workloads.Smp_scaling.sp_xmsgs,
          p.Workloads.Smp_scaling.sp_steals,
          p.Workloads.Smp_scaling.sp_coherence_misses,
          p.Workloads.Smp_scaling.sp_bus_stall_cycles ))
      r.Workloads.Smp_scaling.r_points
  in
  let a = run () and b = run () in
  checki "same number of points" (List.length a) (List.length b);
  List.iteri
    (fun i (pa, pb) ->
      Alcotest.check
        (Alcotest.pair
           (Alcotest.pair Alcotest.int Alcotest.int)
           (Alcotest.pair (Alcotest.pair Alcotest.int Alcotest.int)
              (Alcotest.pair Alcotest.int Alcotest.int)))
        (Printf.sprintf "point %d identical" i)
        (let w, ip, xm, st, co, bs = pa in
         ((w, ip), ((xm, st), (co, bs))))
        (let w, ip, xm, st, co, bs = pb in
         ((w, ip), ((xm, st), (co, bs)))))
    (List.combine a b)

(* --- work stealing ------------------------------------------------------- *)

let test_work_stealing_balances () =
  (* every thread starts on CPU 0 unbound; idle CPUs must pull work over *)
  let k = Test_util.kernel_on ~config:(smp_config 4) () in
  let sys = k.Mach.Kernel.sys in
  let task = Mach.Kernel.task_create k ~name:"mill" () in
  let ran = Array.make 8 false in
  for i = 0 to 7 do
    ignore
      (Mach.Kernel.thread_spawn k task ~name:(Printf.sprintf "w%d" i)
         ~affinity:0
         (fun () ->
           for _ = 1 to 3 do
             Machine.Cpu.stall k.Mach.Kernel.machine.Machine.cpu 2000;
             Mach.Sched.yield ()
           done;
           ran.(i) <- true)
        : thread)
  done;
  Mach.Kernel.run k;
  Array.iteri (fun i r -> checkb (Printf.sprintf "w%d ran" i) true r) ran;
  checkb "idle CPUs stole work" true (Mach.Sched.total_steals sys > 0)

(* --- affinity ------------------------------------------------------------ *)

let test_bound_threads_stay_put () =
  (* bound threads on CPUs 1 and 3; CPU 2 gets nothing and must never
     dispatch, and nothing may be stolen off a bound queue *)
  let k = Test_util.kernel_on ~config:(smp_config 4) () in
  let sys = k.Mach.Kernel.sys in
  let task = Mach.Kernel.task_create k ~name:"pinned" () in
  let body () =
    for _ = 1 to 4 do
      Machine.Cpu.stall k.Mach.Kernel.machine.Machine.cpu 1500;
      Mach.Sched.yield ()
    done
  in
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"p1" ~affinity:1 ~bound:true body
      : thread);
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"p3" ~affinity:3 ~bound:true body
      : thread);
  Mach.Kernel.run k;
  let switches i = sys.Mach.Sched.percpu.(i).Mach.Sched.pc_switches in
  checkb "cpu1 dispatched its thread" true (switches 1 > 0);
  checkb "cpu3 dispatched its thread" true (switches 3 > 0);
  checki "cpu2 never dispatched" 0 (switches 2);
  checki "bound threads never stolen" 0 (Mach.Sched.total_steals sys)

(* --- cross-CPU wakeup ---------------------------------------------------- *)

let test_ipi_wakes_remote_cpu () =
  (* sleeper blocks on CPU 1; waker on CPU 0 posts X_wake + IPI.  The
     empty->nonempty queue transition must send exactly one IPI, and the
     message must actually restart the sleeper. *)
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let task = Mach.Kernel.task_create k ~name:"xw" () in
  let woken = ref false in
  let clock i = Machine.Cpu.now_exact (Machine.nth_cpu m i) in
  let sent = ref infinity and resumed = ref 0.0 in
  let sleeper =
    Mach.Kernel.thread_spawn k task ~name:"sleeper" ~affinity:1 (fun () ->
        let r = Mach.Sched.block "waiting for cpu0" in
        resumed := clock 1;
        woken := r = Kern_success)
  in
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"waker" ~affinity:0 (fun () ->
         (* don't wake until the sleeper has really blocked *)
         while
           match sleeper.state with Th_blocked _ -> false | _ -> true
         do
           Mach.Sched.yield ()
         done;
         Machine.Cpu.stall m.Machine.cpu 500;
         sent := clock 0;
         Mach.Sched.wake sys sleeper)
      : thread);
  Mach.Kernel.run k;
  let perf i = Machine.Cpu.perf (Machine.nth_cpu m i) in
  checkb "sleeper woken" true !woken;
  checki "one IPI sent by cpu0" 1 (Machine.Perf.ipis_sent (perf 0));
  checki "one IPI received by cpu1" 1 (Machine.Perf.ipis_received (perf 1));
  checki "one scheduler message" 1 (Mach.Sched.total_xmsgs sys);
  checkb "the idle receiver resumes at or after the send stamp" true
    (!resumed >= !sent)

(* A CPU with runnable work keeps running it while a later-stamped wake
   is in flight: CPU 1 runs A's 5,000 cycles from its own clock and takes
   the wake (stamped after the waker's 2,000-cycle stall) afterwards,
   without ever idling its clock forward. *)
let test_busy_cpu_runs_before_later_wake () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let task = Mach.Kernel.task_create k ~name:"busy" () in
  let order = ref [] in
  let b =
    Mach.Kernel.thread_spawn k task ~name:"b" ~affinity:1 (fun () ->
        ignore (Mach.Sched.block "waiting for cpu0" : kern_return);
        order := "b" :: !order)
  in
  checkb "b blocked" true
    (Mach.Kernel.run_until k (fun () ->
         match b.state with Th_blocked _ -> true | _ -> false));
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"a" ~affinity:1 ~bound:true
       (fun () ->
         Machine.Cpu.stall m.Machine.cpu 5000;
         order := "a" :: !order)
      : thread);
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"waker" ~affinity:0 (fun () ->
         Machine.Cpu.stall m.Machine.cpu 2000;
         Mach.Sched.wake sys b)
      : thread);
  Mach.Kernel.run k;
  let cpu1 = Machine.nth_cpu m 1 in
  let charged = Machine.Perf.cycles_exact (Machine.Cpu.perf cpu1) in
  let clock = Machine.Cpu.now_exact cpu1 in
  Alcotest.(check (list string)) "b runs, after a" [ "a"; "b" ]
    (List.rev !order);
  checkb "cpu1 ran a's 5,000 cycles" true (charged >= 5000.0);
  checkb "cpu1's clock is its charged cycles: it never idled forward" true
    (clock -. charged < 1.0);
  checkb "cpu1 finishes before 2,000 + 5,000 + its charges" true
    (clock < 2000.0 +. charged)

(* A thread made runnable at cycle T on a busy CPU 0 and stolen there by
   an idle CPU 1 whose clock is far behind T must not run before T: the
   thief idles up to the thread's ready stamp.  Dispatch charging is off,
   so the stolen thread's first charged cycle is its resume clock. *)
let test_stolen_thread_waits_for_ready_stamp () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let task = Mach.Kernel.task_create k ~name:"ready" () in
  let clock i = Machine.Cpu.now_exact (Machine.nth_cpu m i) in
  let t_ready = 1_000_000.0 in
  let resumed_on = ref (-1) and resumed_at = ref 0.0 in
  let c =
    Mach.Kernel.thread_spawn k task ~name:"c" ~affinity:0 (fun () ->
        ignore (Mach.Sched.block "waiting for a" : kern_return);
        resumed_on := Machine.active m;
        resumed_at := clock !resumed_on)
  in
  let b =
    Mach.Kernel.thread_spawn k task ~name:"b" ~affinity:0 ~bound:true
      (fun () -> ignore (Mach.Sched.block "waiting for a" : kern_return))
  in
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"a" ~affinity:0 ~bound:true
       (fun () ->
         let burn = int_of_float (t_ready -. clock 0) in
         Machine.Cpu.stall m.Machine.cpu burn;
         Mach.Sched.wake sys b;
         Mach.Sched.wake sys c)
      : thread);
  Mach.Sched.with_uncharged sys (fun () -> Mach.Kernel.run k);
  checki "cpu 1 stole c" 1 !resumed_on;
  checkb "c's first cycle on cpu 1 is at or after its wake" true
    (!resumed_at >= t_ready)

(* With switch charging off a dispatch costs nothing, so a thread
   yielding in a loop never moves its CPU's clock toward the stamp of a
   wake held there.  The dispatcher must deliver the wake anyway.  Both
   threads are bound: an idle CPU 0 that stole [s] would sit ahead of
   CPU 1's frozen clock and never run it.  [p] and the waker are spawned
   while CPU 1 is the executing CPU, so [p]'s ready stamp is CPU 1's
   clock, not the waker's: only the dispatcher can move CPU 1 forward. *)
let test_zero_cost_yield_loop_terminates () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let task = Mach.Kernel.task_create k ~name:"spin" () in
  let flag = ref false and spins = ref 0 and held_seen = ref false in
  let s =
    Mach.Kernel.thread_spawn k task ~name:"s" ~affinity:1 ~bound:true
      (fun () ->
        ignore (Mach.Sched.block "waiting for cpu0" : kern_return);
        flag := true)
  in
  checkb "s blocked" true
    (Mach.Kernel.run_until k (fun () ->
         match s.state with Th_blocked _ -> true | _ -> false));
  let held () =
    not (Queue.is_empty sys.Mach.Sched.percpu.(1).Mach.Sched.pc_ipiq)
  in
  Mach.Sched.with_uncharged sys (fun () ->
      ignore
        (Mach.Kernel.thread_spawn k task ~name:"waker" ~affinity:0 (fun () ->
             Machine.Cpu.stall m.Machine.cpu 2000;
             Mach.Sched.wake sys s)
          : thread);
      ignore
        (Mach.Kernel.thread_spawn k task ~name:"p" ~affinity:1 ~bound:true
           (fun () ->
             held_seen := held ();
             while (not !flag) && !spins < 10_000 do
               incr spins;
               Mach.Sched.yield ()
             done)
          : thread);
      Mach.Kernel.run k);
  checkb "the wake was held for cpu1 when p began" true !held_seen;
  checkb "the held wake was delivered" true !flag;
  checkb "the yield loop ended on the wake, not the spin cap" true
    (!spins < 10_000)

(* --- causality: every hand-off observes its producer's stamp ------------- *)

(* The probes below run 2 CPUs with switch charging off, so a dispatch
   moves no clock and only the hand-off's stamp can.  In each, a CPU-0
   producer stalls about 1,000,000 cycles before it hands something over
   while the CPU-1 consumer's clock is still a few thousand cycles in. *)

let on_cpu m i = Machine.Cpu.now_exact (Machine.nth_cpu m i)
let here m = on_cpu m (Machine.active m)

(* An idle CPU takes a wake stamped ~1,000,000 cycles ahead of its
   clock by idling up to the stamp, not by paying for the wait. *)
let test_idle_cpu_skips_uncharged () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let task = Mach.Kernel.task_create k ~name:"idle" () in
  let sent = ref infinity and resumed = ref 0.0 in
  let sleeper =
    Mach.Kernel.thread_spawn k task ~name:"sleeper" ~affinity:1 ~bound:true
      (fun () ->
        ignore (Mach.Sched.block "waiting for cpu0" : kern_return);
        resumed := here m)
  in
  checkb "the sleeper blocked" true
    (Mach.Kernel.run_until k (fun () ->
         match sleeper.state with Th_blocked _ -> true | _ -> false));
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"waker" ~affinity:0 ~bound:true
       (fun () ->
         Machine.Cpu.stall m.Machine.cpu 1_000_000;
         sent := here m;
         Mach.Sched.wake sys sleeper)
      : thread);
  Mach.Sched.with_uncharged sys (fun () -> Mach.Kernel.run k);
  let charged =
    Machine.Perf.cycles_exact (Machine.Cpu.perf (Machine.nth_cpu m 1))
  in
  checkb "the sleeper resumes no earlier than the wake" true
    (!resumed >= !sent);
  checkb "cpu1 idled up to the wake: it was charged under 10,000 cycles" true
    (charged < 10_000.0)

(* A semaphore unit made by a signal at cycle ~1,000,000 on CPU 0 must
   not let a CPU-1 waiter pass before that cycle. *)
let test_semaphore_unit_stamp () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let task = Mach.Kernel.task_create k ~name:"sem" () in
  let sem = Mach.Sync.semaphore_create sys ~name:"s" ~value:0 in
  let signalled = ref infinity and passed = ref 0.0 in
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"signaller" ~affinity:0 ~bound:true
       (fun () ->
         Machine.Cpu.stall m.Machine.cpu 1_000_000;
         signalled := here m;
         Mach.Sync.semaphore_signal sys sem)
      : thread);
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"waiter" ~affinity:1 ~bound:true
       (fun () ->
         Mach.Sched.yield ();
         Mach.Sched.yield ();
         ignore (Mach.Sync.semaphore_wait sys sem : kern_return);
         passed := here m)
      : thread);
  Mach.Sched.with_uncharged sys (fun () -> Mach.Kernel.run k);
  checkb "the signal came first in host order" true (!signalled < infinity);
  checkb "the waiter passes no earlier than the signal" true
    (!passed >= !signalled)

(* A serve thread on CPU 1 that yields twice inside a request must not
   take, when the request ends, a call sent at cycle ~1,010,000 from
   CPU 0 while its own clock still reads ~20,000. *)
let test_rpc_pending_call_stamp () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let srv = Mach.Kernel.task_create k ~name:"srv" () in
  let port = Mach.Port.allocate sys ~receiver:srv ~name:"svc" in
  let started = Hashtbl.create 2 in
  let handler (msg : message) =
    (match msg.msg_payload with
    | P_int i -> Hashtbl.replace started i (here m)
    | _ -> ());
    Machine.Cpu.stall m.Machine.cpu 20_000;
    Mach.Sched.yield ();
    Mach.Sched.yield ();
    simple_message ()
  in
  ignore
    (Mach.Kernel.thread_spawn k srv ~name:"serve" ~affinity:1 ~bound:true
       (fun () -> Mach.Rpc.serve sys port handler)
      : thread);
  let clients = Mach.Kernel.task_create k ~name:"clients" () in
  let sent = ref infinity in
  ignore
    (Mach.Kernel.thread_spawn k clients ~name:"late" ~affinity:0 ~bound:true
       (fun () ->
         Machine.Cpu.stall m.Machine.cpu 10_000;
         Mach.Sched.yield ();
         Machine.Cpu.stall m.Machine.cpu 1_000_000;
         sent := here m;
         ignore (Mach.Rpc.call sys port (simple_message ~payload:(P_int 2) ())))
      : thread);
  ignore
    (Mach.Kernel.thread_spawn k clients ~name:"early" ~affinity:1 ~bound:true
       (fun () ->
         ignore (Mach.Rpc.call sys port (simple_message ~payload:(P_int 1) ())))
      : thread);
  Mach.Sched.with_uncharged sys (fun () -> Mach.Kernel.run k);
  checki "both calls served" 2 (Hashtbl.length started);
  checkb "the early call was served before the late one was sent" true
    (Hashtbl.find started 1 < !sent);
  checkb "the late call is served no earlier than it was sent" true
    (Hashtbl.find started 2 >= !sent)

(* A message queued by a send at cycle ~1,000,000 on CPU 0 must not be
   received on CPU 1 before that cycle. *)
let test_ipc_message_stamp () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let task = Mach.Kernel.task_create k ~name:"ipc" () in
  let port = Mach.Port.allocate sys ~receiver:task ~name:"q" in
  let sent = ref infinity and received = ref 0.0 in
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"sender" ~affinity:0 ~bound:true
       (fun () ->
         Machine.Cpu.stall m.Machine.cpu 1_000_000;
         sent := here m;
         ignore (Mach.Ipc.send sys port (simple_message ()) : kern_return))
      : thread);
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"receiver" ~affinity:1 ~bound:true
       (fun () ->
         Mach.Sched.yield ();
         Mach.Sched.yield ();
         match Mach.Ipc.receive sys port with
         | Ok _ -> received := here m
         | Error _ -> ())
      : thread);
  Mach.Sched.with_uncharged sys (fun () -> Mach.Kernel.run k);
  checkb "the send came first in host order" true (!sent < infinity);
  checkb "the message is received no earlier than it was sent" true
    (!received >= !sent)

(* Two mutex holds on two CPUs never overlap in simulated time: CPU 0
   takes the mutex, stalls ~1,000,000 cycles and drops it all in one
   dispatch, before CPU 1, its clock still near 0, asks for it. *)
let test_mutex_holds_do_not_overlap () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let task = Mach.Kernel.task_create k ~name:"mtx" () in
  let mx = Mach.Sync.mutex_create sys ~name:"m" in
  let holds = ref [] in
  let worker cpu stall =
    ignore
      (Mach.Kernel.thread_spawn k task ~name:(Printf.sprintf "w%d" cpu)
         ~affinity:cpu ~bound:true
         (fun () ->
           Mach.Sync.mutex_lock sys mx;
           let from = here m in
           Machine.Cpu.stall m.Machine.cpu stall;
           holds := (from, here m) :: !holds;
           Mach.Sync.mutex_unlock sys mx)
        : thread)
  in
  worker 0 1_000_000;
  worker 1 1_000;
  Mach.Sched.with_uncharged sys (fun () -> Mach.Kernel.run k);
  match !holds with
  | [ (f1, u1); (f0, u0) ] ->
      checkb "the CPU-1 hold starts after the CPU-0 hold ends" true
        (f1 >= u0 || f0 >= u1)
  | l -> Alcotest.failf "expected two holds, got %d" (List.length l)

(* A device event at cycle T that wakes a thread homed on CPU 1 — the
   CPU dispatched last, whose clock is behind T — must not let it run
   before T. *)
let test_device_event_wake_stamp () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let task = Mach.Kernel.task_create k ~name:"dev" () in
  let asleep = ref 0.0 and woke = ref 0.0 in
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"sleeper" ~affinity:1 ~bound:true
       (fun () ->
         asleep := here m;
         ignore (Mach.Clock.sleep_for sys ~cycles:500_000 : kern_return);
         woke := here m)
      : thread);
  Mach.Sched.with_uncharged sys (fun () -> Mach.Kernel.run k);
  checkb "the sleeper runs no earlier than its timer event" true
    (!woke >= !asleep +. 500_000.0)

(* --- Machcheck: cross-CPU deadlock --------------------------------------- *)

let[@machlint.allow "lock-order"] test_cross_cpu_deadlock_annotated () =
  (* the classic AB-BA cycle, except the two threads live on different
     CPUs: the wait-cycle finding must name the CPUs involved *)
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let chk = Check.create () in
  Mach.Sched.enable_checks sys chk;
  let t = Mach.Sched.task_create sys ~name:"app" () in
  let m1 = Mach.Sync.mutex_create sys ~name:"m1" in
  let m2 = Mach.Sync.mutex_create sys ~name:"m2" in
  let got1 = ref false and got2 = ref false in
  ignore
    (Mach.Kernel.thread_spawn k t ~name:"t1" ~affinity:0 ~bound:true (fun () ->
         Mach.Sync.mutex_lock sys m1;
         got1 := true;
         while not !got2 do
           Mach.Sched.yield ()
         done;
         Mach.Sync.mutex_lock sys m2)
      : thread);
  ignore
    (Mach.Kernel.thread_spawn k t ~name:"t2" ~affinity:1 ~bound:true (fun () ->
         Mach.Sync.mutex_lock sys m2;
         got2 := true;
         while not !got1 do
           Mach.Sched.yield ()
         done;
         Mach.Sync.mutex_lock sys m1)
      : thread);
  Mach.Kernel.run k;
  let rep = Check.report chk in
  checki "one wait cycle" 1 (Check.count rep "wait_cycles");
  match
    List.filter
      (fun f -> f.Check.f_kind = "wait-cycle")
      rep.Check.findings
  with
  | [ f ] ->
      checkb "cycle flagged as cross-CPU" true
        (contains f.Check.f_detail "cross-CPU");
      checkb "both CPUs named" true
        (contains f.Check.f_detail "0" && contains f.Check.f_detail "1")
  | fs ->
      Alcotest.failf "expected exactly one cycle finding, got %d"
        (List.length fs)

(* --- machine-state accounting -------------------------------------------- *)

let test_machine_state_scales_per_cpu () =
  let s1 = Machine.Config.machine_state (smp_config 1) in
  let s4 = Machine.Config.machine_state (smp_config 4) in
  let open Machine.Config in
  checki "uniprocessor has no directory" 0 s1.ms_bus_directory_bytes;
  checki "uniprocessor total = one copy"
    (s1.ms_cache_bytes_per_cpu + s1.ms_tlb_bytes_per_cpu)
    s1.ms_total_bytes;
  checki "per-CPU state replicated 4x plus the shared directory"
    ((4 * (s4.ms_cache_bytes_per_cpu + s4.ms_tlb_bytes_per_cpu))
    + s4.ms_bus_directory_bytes)
    s4.ms_total_bytes;
  checkb "SMP machine carries a directory" true (s4.ms_bus_directory_bytes > 0);
  checki "per-CPU byte counts are CPU-count independent"
    s1.ms_cache_bytes_per_cpu s4.ms_cache_bytes_per_cpu

let suite =
  [
    Alcotest.test_case "N-CPU interleaving is deterministic" `Slow
      test_deterministic_interleaving;
    Alcotest.test_case "work stealing drains a starved queue" `Quick
      test_work_stealing_balances;
    Alcotest.test_case "bound threads honor affinity" `Quick
      test_bound_threads_stay_put;
    Alcotest.test_case "IPI wakes a remote idle CPU" `Quick
      test_ipi_wakes_remote_cpu;
    Alcotest.test_case "a later-stamped wake does not idle a busy CPU" `Quick
      test_busy_cpu_runs_before_later_wake;
    Alcotest.test_case "a zero-cost yield loop takes its held wake" `Quick
      test_zero_cost_yield_loop_terminates;
    Alcotest.test_case "a stolen thread never runs before its wake" `Quick
      test_stolen_thread_waits_for_ready_stamp;
    Alcotest.test_case "an idle CPU skips to a wake's stamp uncharged" `Quick
      test_idle_cpu_skips_uncharged;
    Alcotest.test_case "a semaphore unit carries its signal's stamp" `Quick
      test_semaphore_unit_stamp;
    Alcotest.test_case "a pending call is served no earlier than sent" `Quick
      test_rpc_pending_call_stamp;
    Alcotest.test_case "a queued message is received no earlier than sent"
      `Quick test_ipc_message_stamp;
    Alcotest.test_case "mutex holds on two CPUs do not overlap" `Quick
      test_mutex_holds_do_not_overlap;
    Alcotest.test_case "a device-event wake runs no earlier than the event"
      `Quick test_device_event_wake_stamp;
    Alcotest.test_case "cross-CPU deadlock cycle annotated" `Quick
      test_cross_cpu_deadlock_annotated;
    Alcotest.test_case "machine state scales per CPU" `Quick
      test_machine_state_scales_per_cpu;
  ]
