(* Tests for Microkernel Services: runtime, naming, loader, pager. *)

open Mach.Ktypes
module S = Mk_services

let boot () = S.Bootstrap.boot (Machine.create Machine.Config.pentium_133)

let run_in b body = Test_util.run_in_thread b.S.Bootstrap.kernel body

(* --- runtime -------------------------------------------------------------- *)

let test_malloc_free () =
  let b = boot () in
  let k = b.S.Bootstrap.kernel in
  let rt = b.S.Bootstrap.runtime in
  let task = Mach.Kernel.task_create k ~name:"app" () in
  let a1 = S.Runtime.malloc rt task ~bytes:100 in
  let a2 = S.Runtime.malloc rt task ~bytes:100 in
  Alcotest.(check bool) "distinct blocks" true (a2 >= a1 + 112);
  Alcotest.(check int) "usage tracked" 224 (S.Runtime.heap_bytes_in_use rt task);
  S.Runtime.free rt task a1;
  let a3 = S.Runtime.malloc rt task ~bytes:64 in
  Alcotest.(check int) "first fit reuses the hole" a1 a3;
  (match S.Runtime.free rt task 0xdead with
  | () -> Alcotest.fail "bad free succeeded"
  | exception Kern_error Kern_invalid_argument -> ());
  Alcotest.(check int) "usage after reuse" 176 (S.Runtime.heap_bytes_in_use rt task)

let test_umutex_contention () =
  let b = boot () in
  let k = b.S.Bootstrap.kernel in
  let rt = b.S.Bootstrap.runtime in
  let task = Mach.Kernel.task_create k ~name:"app" () in
  let mu = S.Runtime.umutex_create rt ~name:"m" in
  (* uncontended lock/unlock never touches the kernel *)
  Test_util.spawn k task "solo" (fun () ->
      S.Runtime.umutex_lock rt mu;
      S.Runtime.umutex_unlock rt mu);
  Mach.Kernel.run k;
  Alcotest.(check int) "no contention yet" 0 (S.Runtime.umutex_contentions mu);
  let order = ref [] in
  Test_util.spawn k task "w1" (fun () ->
      S.Runtime.umutex_lock rt mu;
      Mach.Sched.yield ();
      order := "w1" :: !order;
      S.Runtime.umutex_unlock rt mu);
  Test_util.spawn k task "w2" (fun () ->
      S.Runtime.umutex_lock rt mu;
      order := "w2" :: !order;
      S.Runtime.umutex_unlock rt mu);
  Mach.Kernel.run k;
  Alcotest.(check bool) "contended path used" true
    (S.Runtime.umutex_contentions mu >= 1);
  Alcotest.(check (list string)) "both critical sections ran" [ "w2"; "w1" ] !order

(* --- name database --------------------------------------------------------- *)

let test_name_db_basics () =
  let db = S.Name_db.create () in
  (match S.Name_db.bind db ~path:"/servers/files" ~attributes:[ ("type", "fs") ] () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "duplicate bind fails" true
    (Result.is_error (S.Name_db.bind db ~path:"/servers/files" ()));
  (match S.Name_db.resolve db ~path:"/servers/files" with
  | Some e ->
      Alcotest.(check (list (pair string string)))
        "attributes stored" [ ("type", "fs") ] e.S.Name_db.attributes
  | None -> Alcotest.fail "resolve failed");
  Alcotest.(check (list string)) "children" [ "files" ]
    (S.Name_db.list_children db ~path:"/servers");
  Alcotest.(check bool) "unbind" true (S.Name_db.unbind db ~path:"/servers/files");
  Alcotest.(check bool) "gone" true (S.Name_db.resolve db ~path:"/servers/files" = None)

let test_name_db_search_and_notify () =
  let db = S.Name_db.create () in
  let changes = ref [] in
  S.Name_db.subscribe db ~prefix:"servers" (fun c -> changes := c :: !changes);
  ignore (S.Name_db.bind db ~path:"/servers/a" ~attributes:[ ("class", "disk") ] ());
  ignore (S.Name_db.bind db ~path:"/servers/b" ~attributes:[ ("class", "net") ] ());
  ignore (S.Name_db.bind db ~path:"/other/c" ~attributes:[ ("class", "disk") ] ());
  let hits = S.Name_db.search_attribute db ~key:"class" ~value:"disk" in
  Alcotest.(check int) "attribute search spans the tree" 2 (List.length hits);
  Alcotest.(check int) "notifications only under prefix" 2 (List.length !changes)

(* --- name service over RPC -------------------------------------------------- *)

let test_name_service_rpc () =
  let b = boot () in
  let ns = S.Bootstrap.name_service_exn b in
  let k = b.S.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let client = Mach.Kernel.task_create k ~name:"client" () in
  let target = Mach.Port.allocate sys ~receiver:client ~name:"me" in
  let ok, resolved, listed =
    Test_util.run_in_thread k (fun () ->
        let ok =
          S.Name_service.bind ns ~path:"/servers/me"
            ~attributes:[ ("kind", "test") ] ~target ()
        in
        let resolved = S.Name_service.resolve_port ns ~path:"/servers/me" in
        let listed = S.Name_service.list_children ns ~path:"/servers" in
        (ok, resolved, listed))
  in
  Alcotest.(check bool) "bind ok" true ok;
  Alcotest.(check bool) "port round-tripped" true
    (match resolved with Some p -> p == target | None -> false);
  Alcotest.(check (list string)) "listing" [ "me" ] listed;
  Alcotest.(check bool) "server actually served" true
    (S.Name_service.requests_served ns >= 3)

let test_simple_naming_mode () =
  let b =
    S.Bootstrap.boot ~naming:S.Bootstrap.Simple_naming
      (Machine.create Machine.Config.pentium_133)
  in
  (match b.S.Bootstrap.simple_names with
  | Some names ->
      let k = b.S.Bootstrap.kernel in
      let sys = k.Mach.Kernel.sys in
      let t = Mach.Kernel.task_create k ~name:"t" () in
      let p = Mach.Port.allocate sys ~receiver:t ~name:"p" in
      Alcotest.(check bool) "register" true (S.Name_simple.register names ~name:"svc" p);
      Alcotest.(check bool) "duplicate refused" false
        (S.Name_simple.register names ~name:"svc" p);
      Alcotest.(check bool) "lookup" true
        (match S.Name_simple.lookup names ~name:"svc" with
        | Some q -> q == p
        | None -> false);
      Alcotest.(check bool) "remove" true (S.Name_simple.remove names ~name:"svc")
  | None -> Alcotest.fail "simple naming not installed");
  match b.S.Bootstrap.name_service with
  | None -> ()
  | Some _ -> Alcotest.fail "full naming should be absent"

(* --- loader ----------------------------------------------------------------- *)

let images =
  S.Loader.
    [
      {
        img_name = "libc.so";
        img_format = Elf_coerced;
        img_text_bytes = 8192;
        img_data_bytes = 0;
        img_symbols = 40;
        img_needs = [];
      };
      {
        img_name = "libnet.so";
        img_format = Elf_svr4;
        img_text_bytes = 8192;
        img_data_bytes = 0;
        img_symbols = 24;
        img_needs = [ "libc.so" ];
      };
      {
        img_name = "app";
        img_format = Elf_svr4;
        img_text_bytes = 4096;
        img_data_bytes = 8192;
        img_symbols = 4;
        img_needs = [ "libnet.so" ];
      };
    ]

let test_loader () =
  let b = boot () in
  let k = b.S.Bootstrap.kernel in
  let ld = b.S.Bootstrap.loader in
  List.iter (S.Loader.register ld) images;
  Alcotest.(check (list string)) "registry" [ "app"; "libc.so"; "libnet.so" ]
    (S.Loader.registered ld);
  let task = Mach.Kernel.task_create k ~name:"app" () in
  let ran = ref false in
  (match S.Loader.load_program ld task "app" ~entry:(fun () -> ran := true) with
  | Ok (_ : thread) -> ()
  | Error e -> Alcotest.fail e);
  Mach.Kernel.run k;
  Alcotest.(check bool) "entry ran" true !ran;
  Alcotest.(check (list string)) "needs attached transitively"
    [ "libc.so"; "libnet.so" ]
    (S.Loader.libraries_of task);
  (* coerced libraries share one region across tasks *)
  let task2 = Mach.Kernel.task_create k ~name:"app2" () in
  (match S.Loader.load_library ld task2 "libc.so" with
  | Ok r2 ->
      let r1 = List.assoc "libc.so" task.libraries in
      Alcotest.(check bool) "same region (address coercion)" true (r1 == r2)
  | Error e -> Alcotest.fail e);
  (match S.Loader.load_program ld task "nope" ~entry:(fun () -> ()) with
  | Ok _ -> Alcotest.fail "loading a missing image succeeded"
  | Error _ -> ());
  Alcotest.check_raises "duplicate registration"
    (Invalid_argument "Loader.register: duplicate image \"app\"") (fun () ->
      S.Loader.register ld (List.nth images 2))

(* --- default pager / paging pressure ---------------------------------------- *)

let test_paging_under_pressure () =
  (* a machine with very little memory: touching a large buffer twice
     must page out and back in through the default pager *)
  let config =
    Machine.Config.with_memory Machine.Config.pentium_133
      ~bytes:(3 * 1024 * 1024)
  in
  let b = S.Bootstrap.boot (Machine.create config) in
  let k = b.S.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let task = Mach.Kernel.task_create k ~name:"hog" () in
  let m = k.Mach.Kernel.machine in
  let t_start = Machine.now m in
  Test_util.run_in_thread k (fun () ->
      let bytes = 4 * 1024 * 1024 in
      let addr = Mach.Vm.allocate sys task ~bytes () in
      (* two passes: the second cannot be all-resident *)
      for pass = 1 to 2 do
        ignore pass;
        let rec walk off =
          if off < bytes then begin
            Mach.Vm.touch sys task ~addr:(addr + off) ~write:true ~bytes:64 ();
            walk (off + 4096)
          end
        in
        walk 0
      done);
  Alcotest.(check bool) "pageouts happened" true (S.Default_pager.pageouts b.S.Bootstrap.pager > 0);
  Alcotest.(check bool) "pageins happened" true (S.Default_pager.pageins b.S.Bootstrap.pager > 0);
  Alcotest.(check bool) "disk time elapsed" true
    (Machine.now m - t_start > 1_000_000);
  Alcotest.(check bool) "residency bounded" true
    (Mach.Vm.resident_pages sys <= sys.Mach.Sched.page_limit + 1)

(* --- reincarnation service ---------------------------------------------------- *)

(* A minimal supervised server: an echo loop with a heartbeat, plus a
   restart closure that brings up a fresh incarnation (fresh port, fresh
   health port, fresh beat — a stale wedged thread must not be able to
   stamp the new incarnation's beat). *)
let spawn_echo_server b ~name =
  let k = b.S.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let task = Mach.Kernel.task_create k ~name () in
  let port = ref (Mach.Port.allocate sys ~receiver:task ~name:(name ^ "-port")) in
  let health =
    ref (Mach.Port.allocate sys ~receiver:task ~name:(name ^ "-health"))
  in
  let spawn_threads () =
    let p = !port and hp = !health in
    let beat = Mach.Health.beat () in
    Test_util.spawn k task (name ^ "-serve") (fun () ->
        Mach.Rpc.serve sys ~beat p (fun _req ->
            simple_message ~payload:P_unit ()));
    Test_util.spawn k task (name ^ "-beat") (fun () ->
        Mach.Rpc.serve sys hp (Mach.Health.handler beat))
  in
  spawn_threads ();
  let restart () =
    port := Mach.Port.allocate sys ~receiver:task ~name:(name ^ "-port");
    health := Mach.Port.allocate sys ~receiver:task ~name:(name ^ "-health");
    spawn_threads ();
    !port
  in
  (port, health, restart)

(* The per-request watchdog: a scripted wedge holds the serve loop far
   past the watchdog with the service port still alive.  Only the
   heartbeat can see it; the supervisor must kill and reincarnate while
   the client completes every operation.  This also pins the missed-arm
   regression: the health config is registered against a supervisor that
   is already parked in its idle wait, and with no ordinary death to
   wake it the heartbeat timer is only ever armed because [supervise]
   pokes the loop — without that poke this test times out with zero
   wedge kills. *)
let test_sup_wedge_watchdog () =
  let b = boot () in
  let k = b.S.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let ns = S.Bootstrap.name_service_exn b in
  let sup = S.Supervisor.create k b.S.Bootstrap.runtime ns in
  let port, health, restart = spawn_echo_server b ~name:"svc" in
  let plan = Mach.Fault.create ~seed:7 () in
  Mach.Fault.script plan ~site:"svc-port" ~n:3
    (Mach.Fault.Wedge_server 500_000);
  sys.Mach.Sched.faults <- Some plan;
  let done_ops = ref 0 in
  let driver = Mach.Kernel.task_create k ~name:"drv" () in
  Test_util.spawn k driver "main" (fun () ->
      S.Supervisor.supervise sup ~path:"/services/svc"
        ~health:
          {
            S.Supervisor.hc_interval = 20_000;
            hc_deadline = 10_000;
            hc_watchdog = 100_000;
            hc_port = (fun () -> Some !health);
          }
        ~port:!port ~restart ();
      Test_util.spawn k driver "client" (fun () ->
          for _ = 1 to 6 do
            let rec attempt n =
              if n = 0 then Alcotest.fail "client could not reach the service";
              let retry () =
                ignore (Mach.Clock.sleep_for sys ~cycles:20_000 : kern_return);
                attempt (n - 1)
              in
              match S.Name_service.resolve_port ns ~path:"/services/svc" with
              | None -> retry ()
              | Some p -> (
                  match
                    Mach.Rpc.call sys p ~deadline:50_000
                      (simple_message ~payload:P_unit ())
                  with
                  | Ok _ -> incr done_ops
                  | Error _ -> retry ())
            in
            attempt 30
          done);
      (* the heartbeat timer keeps the machine awake: stand the
         supervisor down once the client is through *)
      while !done_ops < 6 do
        ignore (Mach.Clock.sleep_for sys ~cycles:20_000 : kern_return)
      done;
      S.Supervisor.stop sup);
  Mach.Kernel.run k;
  sys.Mach.Sched.faults <- None;
  Alcotest.(check int) "one wedge injected" 1
    (Mach.Fault.injected plan ~site:"svc-port" (Mach.Fault.Wedge_server 0));
  Alcotest.(check int) "one wedge kill" 1 (S.Supervisor.wedge_kills sup);
  Alcotest.(check int) "per-path wedge kill" 1
    (S.Supervisor.path_wedge_kills sup ~path:"/services/svc");
  Alcotest.(check int) "one restart" 1 (S.Supervisor.restarts sup);
  Alcotest.(check int) "every op completed" 6 !done_ops;
  Alcotest.(check bool) "mttr recorded" true
    (S.Supervisor.mttr sup ~path:"/services/svc" <> None)

(* Two serve threads share one beat; the third request wedges its
   thread while the sibling keeps serving.  The sibling's finished
   requests must not hide the wedge: each thread stamps its own busy
   slot and the pong reports the oldest, so the watchdog still kills. *)
let test_sup_wedge_beside_live_sibling () =
  let b = boot () in
  let k = b.S.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let ns = S.Bootstrap.name_service_exn b in
  let sup = S.Supervisor.create k b.S.Bootstrap.runtime ns in
  let task = Mach.Kernel.task_create k ~name:"pair" () in
  let port = ref (Mach.Port.allocate sys ~receiver:task ~name:"pair-port") in
  let health =
    ref (Mach.Port.allocate sys ~receiver:task ~name:"pair-health")
  in
  let spawn_threads () =
    let p = !port and hp = !health and beat = Mach.Health.beat () in
    for i = 1 to 2 do
      Test_util.spawn k task (Printf.sprintf "pair-serve-%d" i) (fun () ->
          Mach.Rpc.serve sys ~beat p (fun _req ->
              simple_message ~payload:P_unit ()))
    done;
    Test_util.spawn k task "pair-beat" (fun () ->
        Mach.Rpc.serve sys hp (Mach.Health.handler beat))
  in
  spawn_threads ();
  let restart () =
    port := Mach.Port.allocate sys ~receiver:task ~name:"pair-port";
    health := Mach.Port.allocate sys ~receiver:task ~name:"pair-health";
    spawn_threads ();
    !port
  in
  let plan = Mach.Fault.create ~seed:7 () in
  Mach.Fault.script plan ~site:"pair-port" ~n:3
    (Mach.Fault.Wedge_server 5_000_000);
  sys.Mach.Sched.faults <- Some plan;
  let done_ops = ref 0 in
  let driver = Mach.Kernel.task_create k ~name:"drv" () in
  Test_util.spawn k driver "main" (fun () ->
      S.Supervisor.supervise sup ~path:"/services/pair"
        ~health:
          {
            S.Supervisor.hc_interval = 20_000;
            hc_deadline = 10_000;
            hc_watchdog = 100_000;
            hc_port = (fun () -> Some !health);
          }
        ~port:!port ~restart ();
      Test_util.spawn k driver "client" (fun () ->
          for _ = 1 to 40 do
            let rec attempt n =
              if n = 0 then Alcotest.fail "client could not reach the service";
              let retry () =
                ignore (Mach.Clock.sleep_for sys ~cycles:5_000 : kern_return);
                attempt (n - 1)
              in
              match S.Name_service.resolve_port ns ~path:"/services/pair" with
              | None -> retry ()
              | Some p -> (
                  match
                    Mach.Rpc.call sys p ~deadline:50_000
                      (simple_message ~payload:P_unit ())
                  with
                  | Ok _ ->
                      incr done_ops;
                      ignore
                        (Mach.Clock.sleep_for sys ~cycles:5_000 : kern_return)
                  | Error _ -> retry ())
            in
            attempt 30
          done);
      while !done_ops < 40 do
        ignore (Mach.Clock.sleep_for sys ~cycles:20_000 : kern_return)
      done;
      S.Supervisor.stop sup);
  Mach.Kernel.run k;
  sys.Mach.Sched.faults <- None;
  Alcotest.(check int) "one wedge injected" 1
    (Mach.Fault.injected plan ~site:"pair-port" (Mach.Fault.Wedge_server 0));
  Alcotest.(check int) "the wedged thread is killed" 1
    (S.Supervisor.path_wedge_kills sup ~path:"/services/pair");
  Alcotest.(check int) "every op completed" 40 !done_ops

(* Budget exhaustion: a crash-looping server burns its windowed restart
   budget, is demoted to degraded mode (surfaced to Machcheck as a
   budget-exhausted finding that does NOT count as a failure), and
   clients get [Kern_unavailable] back fast instead of hanging. *)
let test_sup_budget_degraded () =
  let chk = Check.create () in
  Check.install chk;
  Fun.protect ~finally:Check.uninstall @@ fun () ->
  let b = boot () in
  let k = b.S.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let ns = S.Bootstrap.name_service_exn b in
  let sup = S.Supervisor.create k b.S.Bootstrap.runtime ns in
  let path = "/services/flaky" in
  let task = Mach.Kernel.task_create k ~name:"flaky" () in
  let make_port () = Mach.Port.allocate sys ~receiver:task ~name:"flaky" in
  let fastfail = ref (-1) in
  let driver = Mach.Kernel.task_create k ~name:"drv" () in
  Test_util.spawn k driver "main" (fun () ->
      S.Supervisor.supervise sup ~path ~budget:3 ~backoff:2_000
        ~port:(make_port ()) ~restart:make_port ();
      Test_util.spawn k driver "crasher" (fun () ->
          let rec crash () =
            if not (S.Supervisor.is_degraded sup ~path) then begin
              (match S.Supervisor.current_port sup ~path with
              | Some p when not p.dead -> Mach.Port.destroy sys p
              | Some _ | None -> ());
              ignore (Mach.Clock.sleep_for sys ~cycles:4_000 : kern_return);
              crash ()
            end
          in
          crash ());
      Test_util.spawn k driver "client" (fun () ->
          while not (S.Supervisor.is_degraded sup ~path) do
            ignore (Mach.Clock.sleep_for sys ~cycles:3_000 : kern_return)
          done;
          ignore (Mach.Clock.sleep_for sys ~cycles:2_000 : kern_return);
          match S.Name_service.resolve_port ns ~path with
          | None -> Alcotest.fail "degraded path resolves to nothing"
          | Some p -> (
              let t0 = Machine.now m in
              match Mach.Rpc.call sys p (simple_message ~payload:P_unit ()) with
              | Ok { msg_payload = P_error Kern_unavailable; _ } ->
                  fastfail := Machine.now m - t0
              | Ok _ -> Alcotest.fail "degraded responder answered success"
              | Error e ->
                  Alcotest.failf "degraded call failed with %s"
                    (kern_return_to_string e))));
  Mach.Kernel.run k;
  Alcotest.(check int) "restarts capped at the budget" 3
    (S.Supervisor.restarts sup);
  Alcotest.(check int) "demoted once" 1 (S.Supervisor.degraded_count sup);
  Alcotest.(check bool) "path is degraded" true (S.Supervisor.is_degraded sup ~path);
  Alcotest.(check bool) "gave up" true (S.Supervisor.gave_up sup);
  Alcotest.(check bool) "degraded port hidden from current_port" true
    (S.Supervisor.current_port sup ~path = None);
  Alcotest.(check bool) "fast fail under 100k cycles" true
    (!fastfail >= 0 && !fastfail < 100_000);
  let rep = Check.report chk in
  Alcotest.(check int) "budget-exhausted finding recorded" 1
    (Check.count rep "reinc_budget_exhausted");
  Alcotest.(check int) "demotion by policy is not a failure" 0
    (Check.total_findings rep)

(* Dependency-ordered drain: when a driver and the server above it die
   together, the driver must be reincarnated first even though the
   server's death was queued first. *)
let test_sup_dependency_order () =
  let b = boot () in
  let k = b.S.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let ns = S.Bootstrap.name_service_exn b in
  let sup = S.Supervisor.create k b.S.Bootstrap.runtime ns in
  let task = Mach.Kernel.task_create k ~name:"pair" () in
  let mk name = Mach.Port.allocate sys ~receiver:task ~name in
  let order = ref [] in
  Test_util.run_in_thread k (fun () ->
      let pa = mk "drv" and pb = mk "srv" in
      S.Supervisor.supervise sup ~path:"/services/drv" ~port:pa
        ~restart:(fun () ->
          order := "drv" :: !order;
          mk "drv")
        ();
      S.Supervisor.supervise sup ~path:"/services/srv"
        ~deps:[ "/services/drv" ] ~port:pb
        ~restart:(fun () ->
          order := "srv" :: !order;
          mk "srv")
        ();
      (* the dependent dies FIRST, so arrival order alone would restart
         it first; both are pending together when the drain runs *)
      Mach.Port.destroy sys pb;
      Mach.Port.destroy sys pa);
  Mach.Kernel.run k;
  Alcotest.(check (list string)) "driver reincarnated before its dependent"
    [ "srv"; "drv" ] !order

(* The missed-wake regression, heartbeat edition: with a huge heartbeat
   interval armed, a death must still be drained promptly via the
   dead-name poke — not after the 10M-cycle tick expires. *)
let test_sup_prompt_restart_under_heartbeat () =
  let b = boot () in
  let k = b.S.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let ns = S.Bootstrap.name_service_exn b in
  let sup = S.Supervisor.create k b.S.Bootstrap.runtime ns in
  let port, health, restart = spawn_echo_server b ~name:"hb" in
  let died_at = ref (-1) and rebound_at = ref (-1) in
  let driver = Mach.Kernel.task_create k ~name:"drv" () in
  Test_util.spawn k driver "main" (fun () ->
      S.Supervisor.supervise sup ~path:"/services/hb"
        ~health:
          {
            S.Supervisor.hc_interval = 10_000_000;
            hc_deadline = 50_000;
            hc_watchdog = 5_000_000;
            hc_port = (fun () -> Some !health);
          }
        ~port:!port
        ~restart:(fun () ->
          let p = restart () in
          rebound_at := Machine.now m;
          p)
        ();
      Test_util.spawn k driver "killer" (fun () ->
          ignore (Mach.Clock.sleep_for sys ~cycles:30_000 : kern_return);
          died_at := Machine.now m;
          Mach.Port.destroy sys !port);
      while !rebound_at < 0 do
        ignore (Mach.Clock.sleep_for sys ~cycles:10_000 : kern_return)
      done;
      S.Supervisor.stop sup);
  Mach.Kernel.run k;
  Alcotest.(check int) "one restart" 1 (S.Supervisor.restarts sup);
  Alcotest.(check bool) "death seen" true (!died_at >= 0);
  Alcotest.(check bool) "restart prompt, not at the heartbeat tick" true
    (!rebound_at - !died_at < 1_000_000)

let test_components () =
  let b = boot () in
  Alcotest.(check (list string)) "inventory"
    [ "pn-runtime"; "default-pager"; "loader"; "name-service(x500)" ]
    (S.Bootstrap.components b)

let suite =
  [
    Alcotest.test_case "malloc/free" `Quick test_malloc_free;
    Alcotest.test_case "umutex contention" `Quick test_umutex_contention;
    Alcotest.test_case "name db basics" `Quick test_name_db_basics;
    Alcotest.test_case "name db search+notify" `Quick test_name_db_search_and_notify;
    Alcotest.test_case "name service over RPC" `Quick test_name_service_rpc;
    Alcotest.test_case "simple naming mode" `Quick test_simple_naming_mode;
    Alcotest.test_case "loader" `Quick test_loader;
    Alcotest.test_case "paging under pressure" `Slow test_paging_under_pressure;
    Alcotest.test_case "bootstrap components" `Quick test_components;
    Alcotest.test_case "supervisor wedge watchdog" `Quick test_sup_wedge_watchdog;
    Alcotest.test_case "a wedge beside a live sibling thread is killed" `Quick
      test_sup_wedge_beside_live_sibling;
    Alcotest.test_case "supervisor budget exhaustion" `Quick
      test_sup_budget_degraded;
    Alcotest.test_case "supervisor dependency order" `Quick
      test_sup_dependency_order;
    Alcotest.test_case "supervisor prompt restart" `Quick
      test_sup_prompt_restart_under_heartbeat;
  ]
