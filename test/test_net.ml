(* The netisr-sharded netserver: single-loop golden identity, shard
   equivalence (qcheck), SYN-flood backpressure, slowloris reaping,
   O(1) ephemeral-port reuse, cross-shard accept steering, receive
   interrupts steered to the home shard's CPU, and the Machcheck
   shard-crossing assertion. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let qtest = QCheck_alcotest.to_alcotest

let smp_config n = Machine.Config.with_ncpus Machine.Config.pentium_133 ~n

(* --- golden: ncpus=1 is byte-identical to the pre-shard server ----------- *)

(* The exact script the pre-netisr single-loop implementation was run
   under before the refactor; the expected numbers below are captures
   from that build.  Any cycle-level deviation at one shard fails. *)
let golden_script style =
  let m = Machine.create Machine.Config.pentium_133 in
  let k = Mach.Kernel.boot m in
  let net = Netserver.create k ~style in
  let task = Mach.Kernel.task_create k ~name:"app" () in
  Test_util.spawn k task "udp-echo" (fun () ->
      match Netserver.udp_socket net ~port:7 with
      | Error e -> failwith e
      | Ok s ->
          for _ = 1 to 20 do
            let src, bytes = Netserver.udp_recv net s in
            Netserver.udp_send net s ~dst_port:src ~bytes
          done);
  Test_util.spawn k task "udp-client" (fun () ->
      match Netserver.udp_socket net ~port:2000 with
      | Error e -> failwith e
      | Ok s ->
          for i = 1 to 20 do
            Netserver.udp_send net s ~dst_port:7 ~bytes:(64 + (i * 13));
            ignore (Netserver.udp_recv net s)
          done;
          (* vectored + zero-copy datagrams *)
          Netserver.udp_send_vec net s ~dst_port:7 ~iov:[ 100; 200; 44 ];
          Netserver.udp_send net s ~dst_port:9999 ~bytes:512 (* dropped *);
          Netserver.udp_send net s ~dst_port:7 ~bytes:8192;
          Netserver.udp_send_vec net s ~dst_port:7 ~iov:[ 4096; 4096; 512 ]);
  Test_util.spawn k task "tcp-server" (fun () ->
      match Netserver.tcp_listen net ~port:80 with
      | Error e -> failwith e
      | Ok l ->
          for _ = 1 to 4 do
            let c = Netserver.tcp_accept net l in
            let n = Netserver.tcp_recv net c in
            Netserver.tcp_send net c ~bytes:n;
            ignore (Netserver.tcp_recv net c);
            Netserver.close net c
          done);
  Test_util.spawn k task "tcp-client" (fun () ->
      for i = 1 to 4 do
        match Netserver.tcp_connect net ~dst_port:80 with
        | Error e -> failwith e
        | Ok c ->
            Netserver.tcp_send net c ~bytes:(256 * i);
            ignore (Netserver.tcp_recv net c);
            Netserver.tcp_send_vec net c ~iov:[ 4096; 1024 ];
            Netserver.close net c
      done);
  Mach.Kernel.run k;
  ( Netserver.packets_processed net,
    Netserver.checksum_bytes net,
    Netserver.zero_copy_sends net,
    Machine.now m,
    Finegrain.vcalls (Netserver.objects net),
    Finegrain.memory_footprint_bytes (Netserver.objects net) )

let test_golden_coarse () =
  let packets, checksummed, zc, now, vcalls, footprint =
    golden_script Finegrain.Coarse
  in
  checki "packets" 136 packets;
  checki "checksummed" 35336 checksummed;
  checki "zc sends" 6 zc;
  checki "cycles" 394308 now;
  checki "vcalls" 616 vcalls;
  checki "footprint" 49632 footprint

let test_golden_fine () =
  let packets, checksummed, zc, now, vcalls, footprint =
    golden_script Finegrain.Fine_grained
  in
  checki "packets" 136 packets;
  checki "checksummed" 35336 checksummed;
  checki "zc sends" 6 zc;
  checki "cycles" 1401958 now;
  checki "vcalls" 2960 vcalls;
  checki "footprint" 266240 footprint

(* --- shard equivalence (qcheck) ------------------------------------------ *)

(* A random packet script delivered through the 4-shard netisr path must
   produce exactly the per-socket (src, bytes) sequences the one-shard
   direct path produces: steering may reorder *across* sockets but a
   socket's own arrival order is the wire order, shards or not. *)
let run_script ~shards script =
  let m = Machine.create (smp_config 4) in
  let k = Mach.Kernel.boot m in
  let net = Netserver.create ~shards k ~style:Finegrain.Coarse in
  let nsocks = 6 in
  let socks = Array.make nsocks None in
  let task = Mach.Kernel.task_create k ~name:"script" () in
  Test_util.spawn k task "driver" (fun () ->
      for i = 0 to nsocks - 1 do
        match Netserver.udp_socket net ~port:(100 + i) with
        | Error e -> failwith e
        | Ok s -> socks.(i) <- Some s
      done;
      List.iter
        (fun (src, dst, bytes) ->
          Netserver.inject_udp net ~src_port:(10_000 + src)
            ~dst_port:(100 + (dst mod nsocks))
            ~bytes:(1 + bytes))
        script);
  Mach.Kernel.run k;
  Array.map
    (fun s ->
      match s with
      | None -> []
      | Some s ->
          let rec drain acc =
            match Netserver.try_recv net s with
            | Some hit -> drain (hit :: acc)
            | None -> List.rev acc
          in
          drain [])
    socks

let prop_shard_equivalence =
  QCheck.Test.make ~name:"sharded delivery == single-loop delivery" ~count:30
    QCheck.(
      list_of_size Gen.(1 -- 120)
        (triple (int_bound 500) (int_bound 31) (int_bound 9000)))
    (fun script ->
      let single = run_script ~shards:1 script in
      let sharded = run_script ~shards:4 script in
      single = sharded)

(* --- SYN-flood backpressure ---------------------------------------------- *)

let test_syn_flood_backpressure () =
  let m = Machine.create Machine.Config.pentium_133 in
  let k = Mach.Kernel.boot m in
  let net = Netserver.create ~backlog:8 k ~style:Finegrain.Coarse in
  let task = Mach.Kernel.task_create k ~name:"flood" () in
  Test_util.spawn k task "listener" (fun () ->
      match Netserver.tcp_listen net ~port:443 with
      | Error e -> failwith e
      | Ok _ -> ());
  Test_util.spawn k task "attacker" (fun () ->
      for i = 1 to 40 do
        Netserver.inject_syn net ~src_port:(50_000 + i) ~dst_port:443
          ~conn:(1_000_000 + i)
      done);
  Mach.Kernel.run k;
  (* nobody accepts: the backlog holds 8 SYNs, the other 32 are refused
     instead of growing server state without bound *)
  checki "refused beyond the backlog" 32 (Netserver.syn_drops net);
  checki "no half-open children (never accepted)" 0 (Netserver.half_open net)

(* --- slowloris half-open reaping ----------------------------------------- *)

let test_slowloris_reaping () =
  let m = Machine.create Machine.Config.pentium_133 in
  let k = Mach.Kernel.boot m in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  let task = Mach.Kernel.task_create k ~name:"loris" () in
  Test_util.spawn k task "server" (fun () ->
      match Netserver.tcp_listen net ~port:80 with
      | Error e -> failwith e
      | Ok l ->
          for _ = 1 to 6 do
            (* the accepted children SYNACK into the void: the clients
               never complete the handshake *)
            ignore (Netserver.tcp_accept net l : Netserver.socket)
          done);
  Test_util.spawn k task "slowloris" (fun () ->
      for i = 1 to 6 do
        Netserver.inject_syn net ~src_port:(60_000 + i) ~dst_port:80
          ~conn:(2_000_000 + i)
      done);
  Mach.Kernel.run k;
  checki "six connections wedged half-open" 6 (Netserver.half_open net);
  (* young connections survive a generous cutoff... *)
  checki "nothing young reaped" 0
    (Netserver.reap_half_open net ~older_than:100_000_000);
  (* ...and the reaper claims every stale one *)
  checki "all six reaped" 6 (Netserver.reap_half_open net ~older_than:0);
  checki "table clean" 0 (Netserver.half_open net);
  checki "reap counter" 6 (Netserver.reaped_half_open net)

(* --- O(1) ephemeral ports under churn ------------------------------------ *)

let test_port_reuse_under_churn () =
  let m = Machine.create Machine.Config.pentium_133 in
  let k = Mach.Kernel.boot m in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  let task = Mach.Kernel.task_create k ~name:"churn" () in
  let max_port = ref 0 in
  Test_util.spawn k task "server" (fun () ->
      match Netserver.tcp_listen net ~port:80 with
      | Error e -> failwith e
      | Ok l ->
          for _ = 1 to 50 do
            let c = Netserver.tcp_accept net l in
            ignore (Netserver.tcp_recv net c);
            Netserver.close net c
          done);
  Test_util.spawn k task "client" (fun () ->
      for _ = 1 to 50 do
        match Netserver.tcp_connect net ~dst_port:80 with
        | Error e -> failwith e
        | Ok c ->
            max_port := max !max_port (Netserver.local_port c);
            Netserver.tcp_send net c ~bytes:32;
            Netserver.close net c
      done);
  Mach.Kernel.run k;
  (* 50 open/close cycles, at most one connection live at a time: the
     free lists recycle the same handful of ports instead of marching
     through the ephemeral range *)
  checkb "ports recycled, not burned"
    true
    (!max_port < 32768 + 8)

(* --- cross-shard accept steering + shard-crossing checker ---------------- *)

let test_sharded_tcp_and_checker_clean () =
  let chk = Check.create () in
  Check.install chk;
  Fun.protect ~finally:Check.uninstall (fun () ->
      let m = Machine.create (smp_config 4) in
      let k = Mach.Kernel.boot m in
      let net = Netserver.create k ~style:Finegrain.Coarse in
      checki "one shard per cpu" 4 (Netserver.shard_count net);
      let task = Mach.Kernel.task_create k ~name:"web" () in
      let served = ref 0 in
      Test_util.spawn k task "server" (fun () ->
          match Netserver.tcp_listen net ~port:80 with
          | Error e -> failwith e
          | Ok l ->
              for _ = 1 to 8 do
                let c = Netserver.tcp_accept net l in
                let n = Netserver.tcp_recv net c in
                Netserver.tcp_send net c ~bytes:n;
                Netserver.close net c
              done);
      (* connection ids are strided per CPU, so every connection a CPU
         opens hashes to one shard: the client is pinned to a CPU whose
         connections home off the listener's shard *)
      ignore
        (Mach.Kernel.thread_spawn k task ~name:"client" ~affinity:1
           ~bound:true (fun () ->
             for i = 1 to 8 do
               match Netserver.tcp_connect net ~dst_port:80 with
               | Error e -> failwith e
               | Ok c ->
                   Netserver.tcp_send net c ~bytes:(64 * i);
                   ignore (Netserver.tcp_recv net c);
                   incr served;
                   Netserver.close net c
             done)
          : Mach.Ktypes.thread);
      Mach.Kernel.run k;
      checki "all sessions served" 8 !served;
      (* with 8 connections hashed over 4 shards some children must land
         off the listener's shard, exercising the accept protocol *)
      checkb "cross-shard accepts occurred" true
        (Netserver.cross_shard_accepts net > 0);
      checkb "registry protocol exercised" true
        (Netserver.registry_messages net > 0);
      let sum = Array.fold_left ( + ) 0 (Netserver.shard_delivered net) in
      checkb "work spread over more than one shard" true
        (Array.fold_left
           (fun n d -> if d > 0 then n + 1 else n)
           0 (Netserver.shard_delivered net)
         > 1);
      checkb "every packet processed by some shard" true (sum > 0);
      let r = Check.report chk in
      checkb "touches observed" true (Check.count r "net_touches" > 0);
      checki "no shard crossings" 0 (Check.count r "net_shard_crossings");
      checki "no findings at all" 0 (Check.total_findings r))

let test_seeded_shard_crossing_fires () =
  (* known-bad: a socket homed on shard 0 touched from shard 2 must be a
     finding — proves the assertion actually bites *)
  let chk = Check.create () in
  let sp = Check.new_space chk in
  Check.net_socket_home chk ~space:sp ~sock:1 ~shard:0;
  Check.net_touched chk ~space:sp ~sock:1 ~home:0 ~shard:0;
  Check.net_touched chk ~space:sp ~sock:1 ~home:0 ~shard:2;
  let r = Check.report chk in
  checki "one crossing" 1 (Check.count r "net_shard_crossings");
  checki "one finding" 1 (Check.total_findings r);
  match r.Check.findings with
  | [ f ] ->
      Alcotest.(check string) "checker" "net" f.Check.f_checker;
      Alcotest.(check string) "kind" "shard-crossing" f.Check.f_kind
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* --- receive interrupts steered to the home shard's CPU ------------------- *)

let wire_latency = 2_000  (* the simulated segment's fixed latency *)

(* The first port from 100 up that homes on [shard]. *)
let port_on net ~shard =
  let rec find p =
    if Netserver.port_shard net ~port:p = shard then p else find (p + 1)
  in
  find 100

let cpu_now m i = Machine.Cpu.now (Machine.nth_cpu m i)

(* A 4-CPU, 4-shard server, set up further by [prepare], with a
   receiver bound to shard 2's CPU and a sender on CPU 0 that runs
   [send] and then burns a million cycles, so CPU 0's clock is far ahead
   when the wire events fire.  Returns the kernel and server, the
   datagram received, the shard and CPU-2 clock at which the netisr
   processed it, and CPU 0's clock after the burn. *)
let steered_run ~prepare ~send =
  let m = Machine.create (smp_config 4) in
  let k = Mach.Kernel.boot m in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  prepare k net;
  let port = port_on net ~shard:2 in
  let task = Mach.Kernel.task_create k ~name:"rss" () in
  let got = ref None and processed = ref None and cpu0_end = ref 0 in
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"rx" ~affinity:2 ~bound:true
       (fun () ->
         match Netserver.udp_socket net ~port with
         | Error e -> failwith e
         | Ok s -> got := Some (Netserver.udp_recv net s))
      : Mach.Ktypes.thread);
  Netserver.set_delivery_probe net (fun shard _ ->
      processed := Some (shard, cpu_now m 2));
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"tx" ~affinity:0 ~bound:true
       (fun () ->
         send m net ~port;
         Machine.Cpu.stall m.Machine.cpu 1_000_000;
         cpu0_end := Machine.now m)
      : Mach.Ktypes.thread);
  Mach.Kernel.run k;
  (k, net, !got, !processed, !cpu0_end)

let check_processed ~label ~not_before ~before processed =
  match processed with
  | None -> Alcotest.fail (label ^ ": never processed")
  | Some (shard, at) ->
      checki (label ^ ": home shard") 2 shard;
      checkb
        (Printf.sprintf "%s: netisr at %d, not before the arrival at %d"
           label at not_before)
        true (at >= not_before);
      checkb
        (Printf.sprintf "%s: netisr at %d, before CPU 0's clock %d" label at
           before)
        true (at < before)

(* The receive interrupt runs as the home shard's CPU, at the arrival
   time: the netisr's wake is a local enqueue, so CPU 0 sends no IPI and
   no cross-CPU message is delivered, and the packet is processed once
   it has arrived, not when CPU 0's clock says so. *)
let test_arrival_steered_to_home_cpu () =
  let chk = Check.create () in
  Check.install chk;
  Fun.protect ~finally:Check.uninstall (fun () ->
      let sent = ref 0 in
      let k, _net, got, processed, cpu0_end =
        steered_run ~prepare:(fun _ _ -> ())
          ~send:(fun m net ~port ->
            sent := Machine.now m;
            Netserver.inject_udp net ~src_port:7777 ~dst_port:port ~bytes:64)
      in
      let m = k.Mach.Kernel.machine in
      Alcotest.(check (option (pair int int)))
        "datagram received" (Some (7777, 64)) got;
      checki "no IPI from CPU 0" 0
        (Machine.Perf.ipis_sent (Machine.Cpu.perf (Machine.nth_cpu m 0)));
      checki "no cross-CPU message delivered" 0
        (Mach.Sched.total_xmsgs k.Mach.Kernel.sys);
      check_processed ~label:"steered" ~not_before:(!sent + wire_latency)
        ~before:cpu0_end processed;
      let r = Check.report chk in
      checkb "touches observed" true (Check.count r "net_touches" > 0);
      checki "no shard crossings" 0 (Check.count r "net_shard_crossings");
      checki "no findings at all" 0 (Check.total_findings r))

(* A wire fault's delay moves the interrupt, not its CPU: the delayed
   datagram is processed on shard 2's CPU at arrival + delay.  A
   datagram for a shard that is mid micro-reboot is still lost, counted
   in [reboot_drops], by an interrupt that ran on that shard's CPU at
   its arrival time. *)
let test_delayed_and_dropped_arrivals_on_home_cpu () =
  let delay = 50_000 in
  let sent = ref 0 and sent_dead = ref 0 in
  let dead = 3 in
  let k, net, got, processed, cpu0_end =
    steered_run
      ~prepare:(fun k net ->
        let plan = Mach.Fault.create () in
        Mach.Fault.script plan
          ~site:(Printf.sprintf "net:%d" (port_on net ~shard:2))
          ~n:1 (Mach.Fault.Delay_message delay);
        k.Mach.Kernel.sys.Mach.Sched.faults <- Some plan)
      ~send:(fun m net ~port ->
        Netserver.kill_shard net ~shard:dead;
        sent := Machine.now m;
        Netserver.inject_udp net ~src_port:7777 ~dst_port:port ~bytes:64;
        sent_dead := Machine.now m;
        Netserver.inject_udp net ~src_port:7778
          ~dst_port:(port_on net ~shard:dead) ~bytes:64)
  in
  let m = k.Mach.Kernel.machine in
  Alcotest.(check (option (pair int int)))
    "delayed datagram received" (Some (7777, 64)) got;
  checki "nothing dropped on the wire" 0 (Netserver.wire_drops net);
  check_processed ~label:"delayed"
    ~not_before:(!sent + wire_latency + delay)
    ~before:cpu0_end processed;
  checki "the dead shard's arrival is a reboot drop" 1
    (Netserver.reboot_drops net);
  let dead_clock = cpu_now m dead in
  checkb
    (Printf.sprintf "dead shard's CPU at %d, reached the arrival at %d"
       dead_clock (!sent_dead + wire_latency))
    true
    (dead_clock >= !sent_dead + wire_latency);
  checkb "dead shard's CPU behind CPU 0" true (dead_clock < cpu0_end)

(* --- shard micro-reboot --------------------------------------------------- *)

(* Kill and reincarnate the listener's shard in the middle of a SYN
   flood.  The listener must come back from the registry with its
   backlog intact — the second wave is refused entirely, not absorbed —
   and acked data (datagrams already delivered to a socket's rx queue
   on the same shard) survives the reboot byte for byte. *)
let test_reboot_during_syn_flood () =
  let m = Machine.create (smp_config 4) in
  let k = Mach.Kernel.boot m in
  let sys = k.Mach.Kernel.sys in
  let net = Netserver.create ~backlog:8 k ~style:Finegrain.Coarse in
  let victim = Netserver.port_shard net ~port:443 in
  (* a udp port steered to the same shard as the listener *)
  let udp_port =
    let rec find p =
      if Netserver.port_shard net ~port:p = victim then p else find (p + 1)
    in
    find 100
  in
  let task = Mach.Kernel.task_create k ~name:"flood" () in
  let acked = ref None in
  Test_util.spawn k task "driver" (fun () ->
      (match Netserver.tcp_listen net ~port:443 with
      | Error e -> failwith e
      | Ok _ -> ());
      let s =
        match Netserver.udp_socket net ~port:udp_port with
        | Error e -> failwith e
        | Ok s -> s
      in
      acked := Some s;
      for i = 1 to 5 do
        Netserver.inject_udp net ~src_port:(40_000 + i) ~dst_port:udp_port
          ~bytes:(100 + i)
      done;
      for i = 1 to 20 do
        Netserver.inject_syn net ~src_port:(50_000 + i) ~dst_port:443
          ~conn:(1_000_000 + i)
      done;
      (* quiesce so the rings drain: everything below is table state *)
      ignore (Mach.Clock.sleep_for sys ~cycles:300_000 : Mach.Ktypes.kern_return);
      checki "first wave refused beyond the backlog" 12 (Netserver.syn_drops net);
      Netserver.kill_shard net ~shard:victim;
      checkb "shard down" true (Netserver.shard_dead net ~shard:victim);
      Netserver.reincarnate_shard net ~shard:victim;
      for i = 21 to 40 do
        Netserver.inject_syn net ~src_port:(50_000 + i) ~dst_port:443
          ~conn:(1_000_000 + i)
      done;
      ignore (Mach.Clock.sleep_for sys ~cycles:300_000 : Mach.Ktypes.kern_return));
  Mach.Kernel.run k;
  (* the rebuilt listener still holds its 8 backlogged SYNs: the whole
     second wave bounces — backpressure is preserved across the reboot *)
  checki "second wave refused entirely" 32 (Netserver.syn_drops net);
  checki "no half-open children (never accepted)" 0 (Netserver.half_open net);
  checki "one micro-reboot" 1 (Netserver.shard_reincarnations net);
  checki "generation bumped" 1 (Netserver.shard_generation net ~shard:victim);
  checkb "shard back up" true (not (Netserver.shard_dead net ~shard:victim));
  (* acked data: the five delivered datagrams are on the endpoint record,
     not in shard tables, and survive the reboot *)
  let drained =
    match !acked with
    | None -> []
    | Some s ->
        let rec drain acc =
          match Netserver.try_recv net s with
          | Some hit -> drain (hit :: acc)
          | None -> List.rev acc
        in
        drain []
  in
  Alcotest.(check (list (pair int int)))
    "acked datagrams survive the reboot"
    [ (40_001, 101); (40_002, 102); (40_003, 103); (40_004, 104); (40_005, 105) ]
    drained

(* Slowloris half-opens must survive micro-reboots of every shard in
   turn: the embryonic table is rederived from the rebuilt sockets, so
   the reaper keeps its prey.  Cycle every shard to hit whichever ones
   the children actually homed on. *)
let test_reboot_preserves_embryonic () =
  let m = Machine.create (smp_config 4) in
  let k = Mach.Kernel.boot m in
  let sys = k.Mach.Kernel.sys in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  let task = Mach.Kernel.task_create k ~name:"loris" () in
  let accepted = ref 0 in
  Test_util.spawn k task "server" (fun () ->
      match Netserver.tcp_listen net ~port:80 with
      | Error e -> failwith e
      | Ok l ->
          for _ = 1 to 6 do
            ignore (Netserver.tcp_accept net l : Netserver.socket);
            incr accepted
          done);
  Test_util.spawn k task "driver" (fun () ->
      for i = 1 to 6 do
        Netserver.inject_syn net ~src_port:(60_000 + i) ~dst_port:80
          ~conn:(2_000_000 + i)
      done;
      while !accepted < 6 do
        ignore (Mach.Clock.sleep_for sys ~cycles:50_000 : Mach.Ktypes.kern_return)
      done;
      checki "six wedged half-open" 6 (Netserver.half_open net);
      for s = 0 to Netserver.shard_count net - 1 do
        Netserver.kill_shard net ~shard:s;
        Netserver.reincarnate_shard net ~shard:s;
        checki "embryonic table rebuilt" 6 (Netserver.half_open net)
      done;
      (* the reaper still sees every half-open across all the reboots *)
      checki "nothing young reaped" 0
        (Netserver.reap_half_open net ~older_than:100_000_000);
      checki "all six reaped after rebuild" 6
        (Netserver.reap_half_open net ~older_than:0);
      checki "table clean" 0 (Netserver.half_open net));
  Mach.Kernel.run k;
  checki "one reboot per shard" (Netserver.shard_count net)
    (Netserver.shard_reincarnations net)

(* A second kill/reincarnate immediately after the first must be a
   no-op on server state: rebirth is idempotent.  Deliveries after one
   reboot cycle and after two are compared socket by socket. *)
let run_reboot_script ~cycles script =
  let m = Machine.create (smp_config 4) in
  let k = Mach.Kernel.boot m in
  let sys = k.Mach.Kernel.sys in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  let nsocks = 6 in
  let socks = Array.make nsocks None in
  let task = Mach.Kernel.task_create k ~name:"script" () in
  let inject (src, dst, bytes) =
    Netserver.inject_udp net ~src_port:(10_000 + src)
      ~dst_port:(100 + (dst mod nsocks))
      ~bytes:(1 + bytes)
  in
  Test_util.spawn k task "driver" (fun () ->
      for i = 0 to nsocks - 1 do
        match Netserver.udp_socket net ~port:(100 + i) with
        | Error e -> failwith e
        | Ok s -> socks.(i) <- Some s
      done;
      let first, second =
        let rec split n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: rest -> split (n - 1) (x :: acc) rest
        in
        split (List.length script / 2) [] script
      in
      List.iter inject first;
      ignore (Mach.Clock.sleep_for sys ~cycles:500_000 : Mach.Ktypes.kern_return);
      let victim = Netserver.port_shard net ~port:100 in
      for _ = 1 to cycles do
        Netserver.kill_shard net ~shard:victim;
        Netserver.reincarnate_shard net ~shard:victim
      done;
      List.iter inject second;
      ignore (Mach.Clock.sleep_for sys ~cycles:500_000 : Mach.Ktypes.kern_return));
  Mach.Kernel.run k;
  ( Array.map
      (fun s ->
        match s with
        | None -> []
        | Some s ->
            let rec drain acc =
              match Netserver.try_recv net s with
              | Some hit -> drain (hit :: acc)
              | None -> List.rev acc
            in
            drain [])
      socks,
    Netserver.reboot_drops net,
    Netserver.half_open net )

let prop_reboot_idempotent =
  QCheck.Test.make ~name:"kill/reincarnate twice == once" ~count:15
    QCheck.(
      list_of_size Gen.(2 -- 60)
        (triple (int_bound 500) (int_bound 31) (int_bound 9000)))
    (fun script ->
      run_reboot_script ~cycles:1 script = run_reboot_script ~cycles:2 script)

let suite =
  [
    Alcotest.test_case "golden: single-loop identity (coarse)" `Quick
      test_golden_coarse;
    Alcotest.test_case "golden: single-loop identity (fine)" `Quick
      test_golden_fine;
    qtest prop_shard_equivalence;
    Alcotest.test_case "syn flood hits backlog backpressure" `Quick
      test_syn_flood_backpressure;
    Alcotest.test_case "slowloris half-opens are reaped" `Quick
      test_slowloris_reaping;
    Alcotest.test_case "ephemeral ports recycle O(1) under churn" `Quick
      test_port_reuse_under_churn;
    Alcotest.test_case "sharded tcp: cross-shard accepts, checker clean" `Quick
      test_sharded_tcp_and_checker_clean;
    Alcotest.test_case "seeded shard crossing is a finding" `Quick
      test_seeded_shard_crossing_fires;
    Alcotest.test_case "rx interrupt runs on the home shard's CPU" `Quick
      test_arrival_steered_to_home_cpu;
    Alcotest.test_case "delayed and reboot-dropped arrivals on the home CPU"
      `Quick test_delayed_and_dropped_arrivals_on_home_cpu;
    Alcotest.test_case "micro-reboot during syn flood" `Quick
      test_reboot_during_syn_flood;
    Alcotest.test_case "micro-reboot preserves embryonic table" `Quick
      test_reboot_preserves_embryonic;
    qtest prop_reboot_idempotent;
  ]
