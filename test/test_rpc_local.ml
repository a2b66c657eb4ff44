(* The RPC layer's two call classes: ordered calls are taken in arrival
   order by whichever serve thread is free, a commuting call is served by
   the serve thread homed on its caller's CPU unless that CPU has none
   that will take it.  Plus the allocation contract of the dequeue rule
   and the mount lock's fast path. *)

open Mach.Ktypes
module F = Fileserver

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let ok = Test_util.check_fs_ok

let smp_config n = Machine.Config.with_ncpus Machine.Config.pentium_133 ~n

let clock k =
  let m = k.Mach.Kernel.machine in
  Machine.Cpu.now_exact (Machine.nth_cpu m (Machine.active m))

let start_at k at =
  let m = k.Mach.Kernel.machine in
  Machine.Cpu.advance_to (Machine.nth_cpu m (Machine.active m)) at

let sleep k n =
  ignore (Mach.Clock.sleep_for k.Mach.Kernel.sys ~cycles:n : kern_return)

let bound k task ~cpu name body =
  ignore
    (Mach.Kernel.thread_spawn k task ~name ~affinity:cpu ~bound:true body
      : thread)

(* Call [id] started on [cpu] at [cycle]. *)
type served = { s_id : int; s_cpu : int; s_at : float }

(* A port served by one bound serve thread per CPU in [cpus].  The
   handler logs each call it starts and sleeps [hold id] cycles in it. *)
let serve_on k ?beat cpus ~hold =
  let sys = k.Mach.Kernel.sys in
  let task = Mach.Kernel.task_create k ~name:"srv" () in
  let port = Mach.Port.allocate sys ~receiver:task ~name:"svc" in
  let log = ref [] in
  let handler (msg : message) =
    let id = match msg.msg_payload with P_int i -> i | _ -> -1 in
    log :=
      { s_id = id; s_cpu = Machine.active k.Mach.Kernel.machine; s_at = clock k }
      :: !log;
    if hold id > 0 then sleep k (hold id);
    simple_message ~payload:(P_int id) ()
  in
  List.iter
    (fun c ->
      bound k task ~cpu:c (Printf.sprintf "serve%d" c) (fun () ->
          Mach.Rpc.serve sys ?beat port handler))
    cpus;
  (port, log)

let call k port ~commutes id =
  match
    Mach.Rpc.call k.Mach.Kernel.sys port ~commutes
      (simple_message ~payload:(P_int id) ())
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "call %d: %s" id (kern_return_to_string e)

let started log id =
  match List.find_opt (fun s -> s.s_id = id) !log with
  | Some s -> s
  | None -> Alcotest.failf "call %d never started" id

(* Both serve threads are busy (calls 0 and 1 sleep in the handler) when
   ordered call 2 arrives from CPU 0 and ordered call 3 from CPU 1.  CPU
   1's server finishes first and finds both pending: it takes the older
   one, from the other CPU, rather than its own CPU's. *)
let test_ordered_arrival_order () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let port, log =
    serve_on k [ 0; 1 ] ~hold:(function 0 -> 500_000 | 1 -> 300_000 | _ -> 0)
  in
  let task = Mach.Kernel.task_create k ~name:"clients" () in
  bound k task ~cpu:0 "z0" (fun () ->
      start_at k 100_000;
      call k port ~commutes:false 0);
  bound k task ~cpu:1 "z1" (fun () ->
      start_at k 100_000;
      call k port ~commutes:false 1);
  bound k task ~cpu:0 "x" (fun () ->
      sleep k 150_000;
      call k port ~commutes:false 2);
  bound k task ~cpu:1 "y" (fun () ->
      sleep k 160_000;
      call k port ~commutes:false 3);
  Mach.Kernel.run k;
  let x = started log 2 and y = started log 3 in
  checkb "the earlier call starts first" true (x.s_at < y.s_at);
  checki "on the first server free" 1 x.s_cpu

(* One client per CPU, each making commuting calls: every call is served
   by its own CPU's serve thread, and no scheduler message is sent. *)
let test_commuting_local () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let port, log = serve_on k [ 0; 1 ] ~hold:(fun _ -> 0) in
  let task = Mach.Kernel.task_create k ~name:"clients" () in
  let xmsgs = ref (-1) in
  List.iter
    (fun c ->
      bound k task ~cpu:c (Printf.sprintf "c%d" c) (fun () ->
          start_at k 100_000;
          let before = Mach.Sched.total_xmsgs sys in
          for i = 1 to 5 do
            call k port ~commutes:true ((10 * c) + i)
          done;
          if c = 1 then xmsgs := Mach.Sched.total_xmsgs sys - before))
    [ 0; 1 ];
  Mach.Kernel.run k;
  List.iter
    (fun s ->
      checki (Printf.sprintf "call %d on its caller's CPU" s.s_id) (s.s_id / 10)
        s.s_cpu)
    !log;
  checki "ten calls" 10 (List.length !log);
  checki "served locally" 10 (Mach.Rpc.served_local port);
  checki "none crossed" 0 (Mach.Rpc.served_crossed port);
  checki "no scheduler message" 0 !xmsgs

(* CPU 0's serve thread is wedged holding call 1.  Commuting call 2
   from CPU 0 was queued for it just before it took call 1, and call 3
   arrives during the wedge: the idle serve thread on CPU 1 takes both
   long before the wedge ends, while the beat still shows the wedged
   thread busy — what the supervisor's watchdog reads. *)
let test_wedged_home () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let plan = Mach.Fault.create ~seed:1 () in
  Mach.Fault.script plan ~site:"svc" ~n:1 (Mach.Fault.Wedge_server 1_000_000);
  sys.Mach.Sched.faults <- Some plan;
  let beat = Mach.Health.beat () in
  let port, log = serve_on k ~beat [ 0; 1 ] ~hold:(fun _ -> 0) in
  let task = Mach.Kernel.task_create k ~name:"clients" () in
  let done_at = Array.make 4 infinity and busy = ref (-1) in
  let client name id body =
    bound k task ~cpu:0 name (fun () ->
        body ();
        call k port ~commutes:true id;
        done_at.(id) <- clock k;
        if id = 3 then busy := Mach.Health.busy_since beat)
  in
  client "a" 1 (fun () -> start_at k 100_000);
  client "b" 2 (fun () -> start_at k 100_000);
  client "c" 3 (fun () -> sleep k 200_000);
  Mach.Kernel.run k;
  sys.Mach.Sched.faults <- None;
  checki "one wedge" 1
    (Mach.Fault.injected plan ~site:"svc" (Mach.Fault.Wedge_server 0));
  List.iter
    (fun id ->
      checki (Printf.sprintf "call %d: the sibling on CPU 1 served it" id) 1
        (started log id).s_cpu;
      checkb (Printf.sprintf "call %d: before the wedge ended" id) true
        (done_at.(id) < 1_000_000.))
    [ 2; 3 ];
  checkb "call 2 did not wait for call 3 to wake a server" true
    (done_at.(2) < 200_000.);
  checkb "call 1 waited out the wedge" true (done_at.(1) > 1_000_000.);
  checkb "the wedged thread still shows busy" true
    (!busy >= 0 && !busy <= 200_000)

(* Four CPUs, file-server threads on fewer of them: a client on CPU 3,
   which has no serve thread, still gets its commuting and ordered calls
   served. *)
let test_cpu_without_server () =
  List.iter
    (fun threads ->
      let k = Test_util.kernel_on ~config:(smp_config 4) () in
      let runtime = Mk_services.Runtime.install k in
      let disk = k.Mach.Kernel.machine.Machine.disk in
      F.Hpfs.mkfs disk ();
      let vfs = F.Vfs.create () in
      let cache = F.Block_cache.create k disk () in
      (match F.Vfs.mount vfs ~at:"/os2" (ok "mount" (F.Hpfs.mount cache ())) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let fs = F.File_server.start k runtime vfs ~server_threads:threads () in
      let sem = F.Vfs.os2_semantics in
      let seen = ref "" in
      let task = Mach.Kernel.task_create k ~name:"client" () in
      bound k task ~cpu:3 "c" (fun () ->
          let path = "/os2/a.txt" in
          let h =
            ok "create" (F.File_server.Client.open_ fs sem ~path ~create:true ())
          in
          ignore (ok "write" (F.File_server.Client.write fs h (Bytes.of_string "hi")));
          F.File_server.Client.close fs h;
          let h = ok "open" (F.File_server.Client.open_ fs sem ~path ()) in
          seen := Bytes.to_string (ok "read" (F.File_server.Client.read fs h ~bytes:2));
          F.File_server.Client.close fs h);
      Mach.Kernel.run k;
      Alcotest.(check string)
        (Printf.sprintf "%d serve threads: the read came back" threads)
        "hi" !seen;
      checki
        (Printf.sprintf "%d serve threads: every call crossed" threads)
        6
        (Mach.Rpc.served_crossed (F.File_server.port fs)))
    [ 1; 2 ]

(* Taking a pending call, and taking and dropping a free mount lock in
   either mode, allocate nothing. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_no_allocation () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let task = Mach.Kernel.task_create k ~name:"srv" () in
  let port = Mach.Port.allocate sys ~receiver:task ~name:"svc" in
  let pfs =
    Test_mount_lock.fake_volume sys ~read:(fun _ ~off:_ ~len:_ -> Ok Bytes.empty)
  in
  let l = Option.get pfs.F.Fs_types.pfs_lock in
  let clients = Mach.Kernel.task_create k ~name:"clients" () in
  (* two calls nobody serves: they stay pending *)
  for i = 1 to 2 do
    Test_util.spawn k clients (Printf.sprintf "c%d" i) (fun () ->
        ignore (Mach.Rpc.call sys port (simple_message ~payload:(P_int i) ())))
  done;
  let measured = ref [] in
  Test_util.spawn k task "taker" (fun () ->
      let th = Mach.Sched.self () in
      let baseline = words (fun () -> ()) in
      let take () = ignore (Mach.Rpc.next_call port th : rpc_exchange option) in
      let hold mode () =
        th.request <- mode;
        F.Fs_types.hold sys l;
        F.Fs_types.release_held l th;
        th.request <- No_request
      in
      hold Exclusive_request ();  (* the first hold sizes the holder set *)
      measured :=
        [ ("take a pending call", words take -. baseline);
          ("exclusive hold", words (hold Exclusive_request) -. baseline);
          ("shared hold", words (hold Shared_request) -. baseline) ];
      checki "one call left" 1 (Mach.Rpc.pending_calls port));
  Mach.Kernel.run k;
  checki "three measurements" 3 (List.length !measured);
  List.iter
    (fun (what, w) -> Alcotest.(check (float 0.)) (what ^ ": words") 0. w)
    !measured

let suite =
  [
    Alcotest.test_case "ordered calls start in arrival order" `Quick
      test_ordered_arrival_order;
    Alcotest.test_case "commuting calls stay on their CPU" `Quick
      test_commuting_local;
    Alcotest.test_case "a sibling serves around a wedged home thread" `Quick
      test_wedged_home;
    Alcotest.test_case "a CPU without a serve thread is served" `Quick
      test_cpu_without_server;
    Alcotest.test_case "dequeue and acquire allocate nothing" `Quick
      test_no_allocation;
  ]
