(* Fault tolerance across the IPC/RPC stack: the four fragile-loop /
   right-bookkeeping regressions, deadline + bounded-retry clients, the
   supervisor's crash-restart-rebind cycle, deterministic fault-plan
   replay, and a smoke run of the fault-sweep experiment. *)

open Mach.Ktypes
module F = Fileserver

let kr : kern_return Alcotest.testable =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (kern_return_to_string r))
    ( = )

let ok = Test_util.check_fs_ok

(* --- Ipc.serve survives a dead client reply port --------------------------- *)

let test_ipc_serve_dead_reply_port () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let server = Mach.Kernel.task_create k ~name:"server" () in
  let port = Mach.Port.allocate sys ~receiver:server ~name:"svc" in
  let served = ref 0 in
  Test_util.spawn k server "srv" (fun () ->
      Mach.Ipc.serve sys port (fun _msg ->
          incr served;
          simple_message ()));
  let b_result = ref None in
  Test_util.run_in_thread k (fun () ->
      let th = Mach.Sched.self () in
      let a_task = th.t_task in
      (* client A: request sent, then its reply port dies before the
         server answers — the reply send must not kill the server *)
      let rp = Mach.Port.allocate sys ~receiver:a_task ~name:"a-reply" in
      Alcotest.check kr "A send" Kern_success
        (Mach.Ipc.send sys port ~reply_to:rp (simple_message ()));
      Mach.Port.destroy sys rp;
      (* client B: a full round trip through the same server *)
      let b = Mach.Kernel.task_create k ~name:"clientB" () in
      Test_util.spawn k b "B" (fun () ->
          b_result := Some (Mach.Ipc.call sys port (simple_message ()))));
  (match !b_result with
  | Some (Ok _) -> ()
  | Some (Error e) ->
      Alcotest.failf "B's call failed: %s" (kern_return_to_string e)
  | None -> Alcotest.fail "B's call never completed: dead client killed server");
  Alcotest.(check int) "server handled both requests" 2 !served

(* --- Rpc.serve survives one aborted client --------------------------------- *)

let test_rpc_serve_survives_abort () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let server = Mach.Kernel.task_create k ~name:"server" () in
  let port = Mach.Port.allocate sys ~receiver:server ~name:"svc" in
  let srv =
    Mach.Kernel.thread_spawn k server ~name:"srv" (fun () ->
        Mach.Rpc.serve sys port (fun _msg -> simple_message ()))
  in
  let result = ref None in
  Test_util.run_in_thread k (fun () ->
      (* the server ran first and is parked in its receive *)
      Alcotest.(check bool) "server is waiting" true
        (srv.state = Th_blocked "rpc-receive");
      (* a per-call failure surfaces in the loop as an abort *)
      Mach.Sched.wake sys ~result:Kern_aborted srv;
      let client = Mach.Kernel.task_create k ~name:"client" () in
      Test_util.spawn k client "C" (fun () ->
          result := Some (Mach.Rpc.call sys port (simple_message ()))));
  match !result with
  | Some (Ok _) -> ()
  | Some (Error e) ->
      Alcotest.failf "call after abort failed: %s" (kern_return_to_string e)
  | None -> Alcotest.fail "call never completed: abort killed the server loop"

(* --- insert_right never downgrades a held right ----------------------------- *)

let test_insert_right_no_downgrade () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let owner = Mach.Kernel.task_create k ~name:"owner" () in
  let user = Mach.Kernel.task_create k ~name:"user" () in
  let port = Mach.Port.allocate sys ~receiver:owner ~name:"p" in
  let right_of name task =
    match Mach.Port.lookup task name with
    | Some e -> e.re_right
    | None -> Alcotest.fail "right entry vanished"
  in
  (* send-once must not weaken an existing send right *)
  let name = Mach.Port.insert_right sys user port Send_right in
  let name' = Mach.Port.insert_right sys user port Send_once_right in
  Alcotest.(check int) "same entry reused" name name';
  Alcotest.(check bool) "send right preserved" true
    (right_of name user = Send_right);
  (* upgrades still apply *)
  let user2 = Mach.Kernel.task_create k ~name:"user2" () in
  let n2 = Mach.Port.insert_right sys user2 port Send_once_right in
  ignore (Mach.Port.insert_right sys user2 port Send_right : int);
  Alcotest.(check bool) "send-once upgraded to send" true
    (right_of n2 user2 = Send_right);
  (* the receive right stays untouchable *)
  ignore (Mach.Port.insert_right sys owner port Send_once_right : int);
  let oname = Option.get (Mach.Port.lookup_port owner port) in
  Alcotest.(check bool) "receive right preserved" true
    (right_of oname owner = Receive_right)

(* --- wait_for_room enqueues a blocked sender exactly once ------------------- *)

let test_sender_queued_once () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let recv = Mach.Kernel.task_create k ~name:"recv" () in
  let port = Mach.Port.allocate sys ~receiver:recv ~name:"full" in
  let sender_task = Mach.Kernel.task_create k ~name:"sender" () in
  let sender = ref None in
  Test_util.run_in_thread k (fun () ->
      let th =
        Mach.Kernel.thread_spawn k sender_task ~name:"s" (fun () ->
            (* queue limit is 5: the sixth send blocks *)
            for _ = 1 to 6 do
              ignore (Mach.Ipc.send sys port (simple_message ()) : kern_return)
            done)
      in
      sender := Some th;
      let rec wait_blocked n =
        if th.state = Th_blocked "msg-send-queue-full" then ()
        else if n = 0 then Alcotest.fail "sender never blocked on full queue"
        else begin
          Mach.Sched.yield ();
          wait_blocked (n - 1)
        end
      in
      wait_blocked 20;
      Alcotest.(check int) "one queued waiter" 1
        (Queue.length port.waiting_senders);
      (* spurious wake: the queue is still full, so the sender re-blocks —
         and must not enqueue itself a second time *)
      Mach.Sched.wake sys th;
      wait_blocked 20;
      Alcotest.(check int) "still one queued waiter after spurious wake" 1
        (Queue.length port.waiting_senders);
      Mach.Port.destroy sys port)

(* --- deadlines and bounded retry -------------------------------------------- *)

let test_rpc_deadline_times_out () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let server = Mach.Kernel.task_create k ~name:"server" () in
  (* a service port nobody ever serves *)
  let port = Mach.Port.allocate sys ~receiver:server ~name:"mute" in
  Test_util.run_in_thread k (fun () ->
      match Mach.Rpc.call sys port ~deadline:5_000 (simple_message ()) with
      | Error Kern_timed_out -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (kern_return_to_string e)
      | Ok _ -> Alcotest.fail "call to an unserved port succeeded")

let test_call_retry_gives_up () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  Test_util.run_in_thread k (fun () ->
      let th = Mach.Sched.self () in
      let p = Mach.Port.allocate sys ~receiver:th.t_task ~name:"corpse" in
      Mach.Port.destroy sys p;
      let resolve () = Some p in
      (match
         Mach.Rpc.call_retry sys ~attempts:3 ~deadline:5_000 ~backoff:50
           ~resolve (simple_message ())
       with
      | Error Kern_port_dead -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (kern_return_to_string e)
      | Ok _ -> Alcotest.fail "call to a dead port succeeded");
      Alcotest.(check int) "two re-issues for three attempts" 2
        sys.Mach.Sched.retry_attempts;
      (match
         Mach.Ipc.call_retry sys ~attempts:2 ~deadline:5_000 ~backoff:50
           ~resolve (simple_message ())
       with
      | Error Kern_port_dead -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (kern_return_to_string e)
      | Ok _ -> Alcotest.fail "call to a dead port succeeded");
      Alcotest.(check int) "ipc re-issues accumulate" 3
        sys.Mach.Sched.retry_attempts;
      (* a resolver that never finds the name reports that, not port-dead *)
      match
        Mach.Rpc.call_retry sys ~attempts:2 ~deadline:5_000 ~backoff:50
          ~resolve:(fun () -> None)
          (simple_message ())
      with
      | Error Kern_invalid_name -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (kern_return_to_string e)
      | Ok _ -> Alcotest.fail "unresolvable name succeeded")

(* --- supervisor: crash, restart, rebind, carry on ---------------------------- *)

let test_supervisor_restarts_file_server () =
  let m = Machine.create Machine.Config.pentium_133 in
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
  (* scripted crash on the 4th file-service request *)
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
  (* restart now runs crash recovery (journal replay + fsck scan) before
     the replacement is rebound, so the retry budget must span tens of
     millions of simulated cycles, not thousands *)
  F.File_server.set_retry fs ~attempts:8 ~deadline:1_000_000
    ~backoff:1_000_000 ~resolve ();
  let sem = F.Vfs.os2_semantics in
  Test_util.run_in_thread k (fun () ->
      Mk_services.Supervisor.supervise sup ~path:"/services/file"
        ~port:old_port
        ~restart:(fun () -> F.File_server.restart fs)
        ();
      (* requests 1-3: a full session against the original instance *)
      let h = ok "open" (F.File_server.Client.open_ fs sem ~path:"/os2/a.txt" ~create:true ()) in
      let n = ok "write" (F.File_server.Client.write fs h (Bytes.make 64 'x')) in
      Alcotest.(check int) "wrote" 64 n;
      F.File_server.Client.close fs h;
      (* request 4 crashes the server mid-call; the retry must find the
         supervisor's replacement and complete *)
      let h2 = ok "open after crash" (F.File_server.Client.open_ fs sem ~path:"/os2/a.txt" ()) in
      let data = ok "read after restart" (F.File_server.Client.read fs h2 ~bytes:64) in
      Alcotest.(check int) "read survived the crash" 64 (Bytes.length data);
      F.File_server.Client.close fs h2);
  Alcotest.(check int) "one restart" 1 (Mk_services.Supervisor.restarts sup);
  Alcotest.(check bool) "did not give up" false (Mk_services.Supervisor.gave_up sup);
  Alcotest.(check int) "one injected crash" 1 
    (Mach.Fault.injected plan ~site:"file-service" Mach.Fault.Crash_server);
  (* the name service now resolves to the replacement, not the corpse *)
  Test_util.run_in_thread k (fun () ->
      match Mk_services.Name_service.resolve_port ns ~path:"/services/file" with
      | Some p ->
          Alcotest.(check bool) "rebound to a live port" true (not p.dead);
          Alcotest.(check bool) "a fresh port" true (p.port_id <> old_port.port_id)
      | None -> Alcotest.fail "service name lost after restart")

(* --- seeded plans replay identically ------------------------------------------ *)

(* svc's faults over 200 request/send pairs, as a string.  Site-less
   crash and drop rates cover every other port; [noise] requests and
   sends to an unrelated port precede each pair. *)
let drive_plan ?(noise = 0) plan =
  let open Mach.Fault in
  script plan ~site:"svc" ~n:3 Kill_port;
  script plan ~site:"svc" ~n:7 Drop_message;
  List.iter
    (set_rate plan ~site:"svc" ~ppm:50_000)
    [ Crash_server; Drop_message; Delay_message 5_000 ];
  List.iter (set_rate plan ~ppm:50_000) [ Crash_server; Drop_message ];
  let log = Buffer.create 400 in
  for _ = 1 to 200 do
    for _ = 1 to noise do
      ignore (on_request plan ~port:"heartbeat", on_send plan ~port:"heartbeat")
    done;
    (match on_request plan ~port:"svc" with
    | S_continue -> Buffer.add_char log '.'
    | S_kill -> Buffer.add_char log 'K'
    | S_crash -> Buffer.add_char log 'C'
    | S_wedge _ -> Buffer.add_char log 'W');
    match on_send plan ~port:"svc" with
    | M_pass -> Buffer.add_char log '-'
    | M_drop -> Buffer.add_char log 'D'
    | M_delay _ -> Buffer.add_char log 'd'
  done;
  Buffer.contents log

let test_fault_replay_deterministic () =
  let a = drive_plan (Mach.Fault.create ~seed:99 ()) in
  let b = drive_plan (Mach.Fault.create ~seed:99 ()) in
  Alcotest.(check string) "same seed, same faults" a b;
  Alcotest.(check bool) "scripted kill fired" true (String.contains a 'K');
  Alcotest.(check bool) "random crashes fired" true (String.contains a 'C');
  let pa = Mach.Fault.create ~seed:99 () and pb = Mach.Fault.create ~seed:99 () in
  ignore (drive_plan pa : string);
  ignore (drive_plan pb : string);
  Alcotest.(check bool) "traces replay event for event" true
    (Mach.Fault.trace pa = Mach.Fault.trace pb);
  let c = drive_plan (Mach.Fault.create ~seed:100 ()) in
  Alcotest.(check bool) "different seed diverges" true (a <> c)

(* Each (site, action) draws from its own stream, so traffic elsewhere
   never moves a site's schedule: heartbeats on an unrelated port leave
   svc's faults as they were, and in fs-crash's plan (a crash rate on
   the file server, a reorder rate on its disk) the number of disk
   writes between requests leaves the crashes where they were. *)
let test_fault_sites_independent () =
  let open Mach.Fault in
  let quiet = drive_plan (create ~seed:99 ()) in
  List.iter
    (fun noise ->
      let plan = create ~seed:99 () in
      Alcotest.(check string) "svc's faults under heartbeats" quiet
        (drive_plan ~noise plan);
      Alcotest.(check bool) "heartbeat drops fired" true
        (injected plan ~site:"heartbeat" Drop_message > 0))
    [ 1; 3 ];
  let fs_crash_plan ~writes =
    let plan = create ~seed:42 () in
    set_rate plan ~site:"file-service" ~ppm:30_000 Crash_server;
    set_rate plan ~site:"hd0" ~ppm:30_000 Reorder;
    let crashed = ref [] in
    for i = 1 to 300 do
      if on_request plan ~port:"file-service" = S_crash then
        crashed := i :: !crashed;
      for _ = 1 to writes do ignore (on_disk_write plan ~disk:"hd0") done
    done;
    (!crashed, injected plan ~site:"hd0" Reorder)
  in
  let crashes, _ = fs_crash_plan ~writes:0 in
  Alcotest.(check bool) "crashes fired" true (crashes <> []);
  List.iter
    (fun writes ->
      let c, reorders = fs_crash_plan ~writes in
      Alcotest.(check (list int)) "crashes under disk writes" crashes c;
      Alcotest.(check bool) "reorders fired" true (reorders > 0))
    [ 1; 3 ]

(* One plan rates two ports and two disks, each for its own action: all
   four fire, and nothing else does. *)
let test_fault_rates_on_four_sites () =
  let open Mach.Fault in
  let plan = create ~seed:3 () in
  List.iter
    (fun (site, a) -> set_rate plan ~site ~ppm:100_000 a)
    [ ("svc", Crash_server); ("echo", Drop_message); ("hd0", Torn_write);
      ("hd1", Reorder) ];
  for _ = 1 to 100 do
    List.iter
      (fun site ->
        ignore
          ( on_request plan ~port:site,
            on_send plan ~port:site,
            on_disk_write plan ~disk:site ))
      [ "svc"; "echo"; "hd0"; "hd1"; "other" ]
  done;
  Alcotest.(check (list (pair string string))) "each rated site's own action"
    [ ("echo", "drop"); ("hd0", "torn-write"); ("hd1", "reorder");
      ("svc", "crash") ]
    (List.sort_uniq compare
       (List.map (fun (_, site, kind) -> (site, kind)) (trace plan)))

(* --- the fs-crash sweep: completion under rising crash rates ------------ *)

let test_fault_sweep_smoke () =
  let r =
    Workloads.Fault_storm.run ~endpoints:6 ~rounds:16 ~victim_ops:3
      ~clients:1 ~sessions:2 ()
  in
  let module J = Bench_json in
  match J.parse (J.to_string (Workloads.Fault_storm.to_json r)) with
  | Error e -> Alcotest.failf "BENCH_storm.json does not parse: %s" e
  | Ok v ->
      let rows =
        match J.member "results" v with
        | Some (J.Arr rows) ->
            List.filter
              (fun row -> J.member "scenario" row = Some (J.Str "fs-crash"))
              rows
        | _ -> Alcotest.fail "missing results"
      in
      let num key row =
        match J.member key row with
        | Some (J.Num n) -> int_of_float n
        | _ -> Alcotest.failf "missing %s" key
      in
      Alcotest.(check (list int)) "swept rates, in order"
        [ 0; 2_000; 10_000; 30_000 ]
        (List.map (num "crash_ppm") rows);
      List.iter
        (fun row ->
          Alcotest.(check bool) "completed within ops" true
            (num "completed" row <= num "ops" row);
          Alcotest.(check int) "no acknowledged op lost" 0 (num "lost" row))
        rows;
      Alcotest.(check bool) "the top rate restarts the server" true
        (num "restarts" (List.nth rows 3) > 0)

(* fs-crash with no faults at all: three editors against two serve
   threads, whose creates in one HPFS directory race unless each mount's
   operations are serialized.  Every seed must finish every session on a
   clean volume. *)
let test_fs_crash_no_faults_seeds () =
  for seed = 1 to 8 do
    let p =
      Workloads.Fault_storm.fs_crash ~seed ~clients:3 ~sessions:6 ~crash_ppm:0
        ()
    in
    let label what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check int) (label "sessions") 18 p.fp_ops;
    Alcotest.(check int) (label "no session lost") 0 p.fp_lost;
    Alcotest.(check int) (label "fsck clean") 0 p.fp_fsck_findings
  done

let suite =
  [
    Alcotest.test_case "ipc serve survives dead reply port" `Quick
      test_ipc_serve_dead_reply_port;
    Alcotest.test_case "rpc serve survives aborted client" `Quick
      test_rpc_serve_survives_abort;
    Alcotest.test_case "insert_right never downgrades" `Quick
      test_insert_right_no_downgrade;
    Alcotest.test_case "blocked sender queued once" `Quick
      test_sender_queued_once;
    Alcotest.test_case "rpc deadline times out" `Quick
      test_rpc_deadline_times_out;
    Alcotest.test_case "call_retry bounded give-up" `Quick
      test_call_retry_gives_up;
    Alcotest.test_case "supervisor restarts crashed file server" `Quick
      test_supervisor_restarts_file_server;
    Alcotest.test_case "fault plans replay identically" `Quick
      test_fault_replay_deterministic;
    Alcotest.test_case "fault-sweep smoke + json" `Quick
      test_fault_sweep_smoke;
    Alcotest.test_case "fs-crash at 0 ppm, seeds 1-8" `Quick
      test_fs_crash_no_faults_seeds;
    Alcotest.test_case "one plan rates two ports and two disks" `Quick
      test_fault_rates_on_four_sites;
    Alcotest.test_case "traffic elsewhere leaves a site's faults" `Quick
      test_fault_sites_independent;
  ]
