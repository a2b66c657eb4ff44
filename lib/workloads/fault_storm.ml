(* The fault-storm experiment: availability under live fault injection.

   Five scenarios, each booting a fresh machine, each measuring how much
   service survives while a component is killed, wedged or crash-looped
   under load:

   - [shard-golden]: an open-loop deterministic UDP storm over a sharded
     netserver while one protocol shard is killed and reincarnated
     mid-run.  Because injection is blind to server state, the untouched
     shards must process *exactly* the packet counts of a no-fault
     control run (the golden assert), and the victim's shortfall must
     equal the counted reboot drops.
   - [shard-storm]: closed-loop acknowledged echo operations from one
     victim client per CPU while the shard homing a victim's socket is
     killed and reincarnated twice.  Acked ops are never lost — clients
     re-drive dropped traffic through their retry budgets — and the
     fault windows give per-window availability and shard MTTR.
   - [fs-crash]: the E1-style edit workload against a health-supervised
     file server under random crash injection plus disk write-reorder
     faults, swept over the crash rate; the supervisor's dead-name path
     restarts it and MTTR is death-to-rebind.
   - [fs-wedge]: scripted [Wedge_server] faults stick the file server's
     serve loop mid-request; the port stays alive, so only the
     supervisor's heartbeat watchdog can see it.  Detection, kill and
     restart must happen while clients keep completing.
   - [crash-loop]: a server whose every incarnation dies immediately
     burns its restart budget and is demoted to degraded mode; a client
     resolving the name must get [Kern_unavailable] back fast — the
     fast-fail latency is the measurement — instead of hanging.

   All randomness is the seeded fault plan plus a seeded LCG: every
   number is deterministic. *)

open Mach.Ktypes
open Rig
module F = Fileserver

type point = {
  fp_scenario : string;
  fp_crash_ppm : int option;  (* fs-crash's injected crash rate *)
  fp_injected : (string * int) list;  (* fs-crash: faults the plan injected *)
  fp_ops : int;  (* operations attempted (or packets injected) *)
  fp_completed : int;
  fp_lost : int;  (* acked/attempted ops that never completed: must be 0 *)
  fp_in_ops : int;  (* ops finishing inside a fault window *)
  fp_in_ok : int;
  fp_out_ops : int;
  fp_out_ok : int;
  fp_avail_in : float;  (* success ratio inside fault windows *)
  fp_avail_out : float;
  fp_rate_in : float;  (* successful ops per Mcycle inside windows *)
  fp_rate_out : float;
  fp_windows : int;  (* fault windows injected *)
  fp_mttr : float;  (* mean time to repair, cycles (0 when n/a) *)
  fp_restarts : int;
  fp_wedge_kills : int;
  fp_degraded : int;
  fp_reboot_drops : int;  (* in-flight packets lost to shard reboots *)
  fp_reincarnations : int;
  fp_golden_ok : bool;  (* untouched shards identical to the control run *)
  fp_fastfail_cycles : int;  (* degraded-mode error latency (-1 = n/a) *)
  fp_fsck_findings : int;  (* file-server scenarios' final scan: must be 0 *)
}

type result = {
  fr_seed : int;
  fr_points : point list;
}

let base scenario =
  {
    fp_scenario = scenario;
    fp_crash_ppm = None;
    fp_injected = [];
    fp_ops = 0;
    fp_completed = 0;
    fp_lost = 0;
    fp_in_ops = 0;
    fp_in_ok = 0;
    fp_out_ops = 0;
    fp_out_ok = 0;
    fp_avail_in = 1.0;
    fp_avail_out = 1.0;
    fp_rate_in = 0.0;
    fp_rate_out = 0.0;
    fp_windows = 0;
    fp_mttr = 0.0;
    fp_restarts = 0;
    fp_wedge_kills = 0;
    fp_degraded = 0;
    fp_reboot_drops = 0;
    fp_reincarnations = 0;
    fp_golden_ok = true;
    fp_fastfail_cycles = -1;
    fp_fsck_findings = 0;
  }

(* --- op ledger: completion-stamped outcomes vs fault windows -------------- *)

type ledger = { mutable lg : (int * bool) list }

let ledger () = { lg = [] }
let note l ~at ok = l.lg <- (at, ok) :: l.lg

let classify l windows =
  let inside at = List.exists (fun (a, b) -> at >= a && at <= b) windows in
  List.fold_left
    (fun (iop, iok, oop, ook) (at, ok) ->
      if inside at then
        (iop + 1, (if ok then iok + 1 else iok), oop, ook)
      else (iop, iok, oop + 1, if ok then ook + 1 else ook))
    (0, 0, 0, 0) l.lg

let ratio ok total = if total = 0 then 1.0 else float_of_int ok /. float_of_int total

let window_cycles windows =
  List.fold_left (fun acc (a, b) -> acc + max 0 (b - a)) 0 windows

let mean_window windows =
  match windows with
  | [] -> 0.0
  | ws -> float_of_int (window_cycles ws) /. float_of_int (List.length ws)

let per_mcycle ops cycles =
  if cycles <= 0 then 0.0 else float_of_int ops /. float_of_int cycles *. 1e6

(* Fill the availability block of a point from a ledger + windows. *)
let with_availability p l windows ~wall =
  let iop, iok, oop, ook = classify l windows in
  let wsum = window_cycles windows in
  {
    p with
    fp_in_ops = iop;
    fp_in_ok = iok;
    fp_out_ops = oop;
    fp_out_ok = ook;
    fp_avail_in = ratio iok iop;
    fp_avail_out = ratio ook oop;
    fp_rate_in = per_mcycle iok wsum;
    fp_rate_out = per_mcycle ook (max 0 (wall - wsum));
    fp_windows = List.length windows;
    fp_mttr = mean_window windows;
  }

(* --- shard-golden: open-loop storm, untouched shards byte-identical ------- *)

(* One run of the open-loop storm.  The injection schedule is fixed on
   the event timeline before any packet flies, so it is identical with
   and without the mid-run kill; the killer thread exists in both runs
   (bound to the victim shard's CPU, so its cycles land there and only
   there) and merely declines to kill in the control run. *)
let golden_run ~ncpus ~endpoints ~rounds ~kill () =
  let m = Machine.create (config ~ncpus) in
  let k = Mach.Kernel.boot m in
  let sys = k.Mach.Kernel.sys in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  let victim = Netserver.port_shard net ~port:100 in
  let gap = 8_000 in
  let task = Mach.Kernel.task_create k ~name:"storm" () in
  let windows = ref [] in
  let schedule at f = Machine.Event_queue.schedule m.Machine.events ~at f in
  let inject_round r =
    for e = 0 to endpoints - 1 do
      let src = 10_000 + (lcg ((r * 131) + e) mod 5_000) in
      Netserver.inject_udp net ~src_port:src ~dst_port:(100 + e) ~bytes:256
    done
  in
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"binder" (fun () ->
         for e = 0 to endpoints - 1 do
           match Netserver.udp_socket net ~port:(100 + e) with
           | Error err -> failwith err
           | Ok _ -> ()
         done;
         let t0 = Machine.now m + 2_000 in
         for r = 0 to rounds - 1 do
           schedule (t0 + (r * gap)) (fun () -> inject_round r)
         done)
      : thread);
  spawn_on k task "killer" ~cpu:(victim mod ncpus) (fun () ->
      sleep sys (12 * gap);
      if kill then begin
        let d0 = Machine.global_now m in
        Netserver.kill_shard net ~shard:victim;
        sleep sys (10 * gap);
        Netserver.reincarnate_shard net ~shard:victim;
        windows := (d0, Machine.global_now m) :: !windows
      end
      else sleep sys (10 * gap));
  Mach.Kernel.run k;
  (net, victim, !windows)

let shard_golden ~endpoints ~rounds () =
  let ncpus = 4 in
  let netc, victim, _ = golden_run ~ncpus ~endpoints ~rounds ~kill:false () in
  let netf, victim', windows = golden_run ~ncpus ~endpoints ~rounds ~kill:true () in
  assert (victim = victim');
  let dc = Netserver.shard_delivered netc in
  let df = Netserver.shard_delivered netf in
  let drops = Netserver.reboot_drops netf in
  let golden = ref (drops > 0) in
  Array.iteri (fun i d -> if i <> victim && d <> dc.(i) then golden := false) df;
  (* the victim's shortfall is exactly the counted reboot drops *)
  if df.(victim) + drops <> dc.(victim) then golden := false;
  let total = Array.fold_left ( + ) 0 df in
  {
    (base "shard-golden") with
    fp_ops = rounds * endpoints;
    fp_completed = total;
    fp_lost = 0;  (* open loop: drops are expected, acked ops don't exist *)
    fp_windows = List.length windows;
    fp_mttr = mean_window windows;
    fp_reboot_drops = drops;
    fp_reincarnations = Netserver.shard_reincarnations netf;
    fp_golden_ok = !golden;
  }

(* --- shard-storm: closed-loop acked ops across shard micro-reboots -------- *)

let shard_storm ~victim_ops () =
  let ncpus = 4 in
  let m = Machine.create (config ~ncpus) in
  let k = Mach.Kernel.boot m in
  let sys = k.Mach.Kernel.sys in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  let echo_home = Netserver.port_shard net ~port:7 in
  let vport cpu = 20_000 + cpu in
  (* kill the shard homing a victim's receive socket — never the echo
     server's, so the service itself stays up and only that victim's
     replies vanish while the shard is down *)
  let victim =
    let rec pick cpu =
      if cpu >= ncpus then (echo_home + 1) mod ncpus
      else
        let sh = Netserver.port_shard net ~port:(vport cpu) in
        if sh <> echo_home then sh else pick (cpu + 1)
    in
    pick 0
  in
  let task = Mach.Kernel.task_create k ~name:"storm" () in
  let lg = ledger () in
  let windows = ref [] in
  let lost = ref 0 and completed = ref 0 in
  spawn_on k task "echo" ~cpu:0 (fun () ->
      match Netserver.udp_socket net ~port:7 with
      | Error e -> failwith e
      | Ok s ->
          let rec serve () =
            let src, n = Netserver.udp_recv net s in
            Netserver.udp_send net s ~dst_port:src ~bytes:n;
            serve ()
          in
          serve ());
  spawn_on k task "killer" ~cpu:(victim mod ncpus) (fun () ->
      sleep sys 40_000;
      for _ = 1 to 2 do
        let d0 = Machine.global_now m in
        Netserver.kill_shard net ~shard:victim;
        sleep sys 50_000;
        Netserver.reincarnate_shard net ~shard:victim;
        windows := (d0, Machine.global_now m) :: !windows;
        sleep sys 80_000
      done);
  for cpu = 0 to ncpus - 1 do
    spawn_on k task (Printf.sprintf "victim%d" cpu) ~cpu (fun () ->
        sleep sys 2_000;
        match Netserver.udp_socket net ~port:(vport cpu) with
        | Error e -> failwith e
        | Ok s ->
            for _ = 1 to victim_ops do
              let rec attempt budget =
                if budget = 0 then begin
                  incr lost;
                  note lg ~at:(Machine.global_now m) false
                end
                else begin
                  Netserver.udp_send net s ~dst_port:7 ~bytes:160;
                  if poll_reply sys net s ~polls:12 ~gap:6_000 then begin
                    incr completed;
                    note lg ~at:(Machine.global_now m) true
                  end
                  else attempt (budget - 1)
                end
              in
              attempt 40
            done)
  done;
  Mach.Kernel.run k;
  let ops = victim_ops * ncpus in
  let p =
    {
      (base "shard-storm") with
      fp_ops = ops;
      fp_completed = !completed;
      fp_lost = !lost;
      fp_reboot_drops = Netserver.reboot_drops net;
      fp_reincarnations = Netserver.shard_reincarnations net;
    }
  in
  with_availability p lg !windows ~wall:(Machine.global_now m)

(* --- fs-crash / fs-wedge: the health-supervised file server --------------- *)

let service_path = "/services/file"

(* One edit session, retried: any step may come back [E_bad_handle]
   after a crash-and-restart (the open-file table is lost), so the
   session restarts from the open a bounded number of times. *)
let run_session fs sem ~path =
  let rec go tries =
    match edit_session fs sem ~path ~fill:'s' ~reads:4 with
    | Ok () -> true
    | Error _ when tries < 3 -> go (tries + 1)
    | Error _ -> false
  in
  go 0

(* The common chassis: boot, mount, supervise with a heartbeat config,
   run [clients]x[sessions] while [configure] installs the scenario's
   fault plan, and stop the supervisor when the last session lands (the
   heartbeat timer would otherwise keep the machine awake forever).
   [configure] returns the injection counts the point reports. *)
let fs_scenario ~scenario ~seed ~clients ~sessions ~server_threads ~watchdog
    ~configure () =
  let m = Machine.create Machine.Config.pentium_133 in
  let boot = Mk_services.Bootstrap.boot m in
  let k = boot.Mk_services.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let runtime = boot.Mk_services.Bootstrap.runtime in
  let ns = Mk_services.Bootstrap.name_service_exn boot in
  let disk = m.Machine.disk in
  let vfs = F.Vfs.create () in
  let cache = mount_hpfs k disk vfs in
  let fs = F.File_server.start k runtime vfs ~server_threads () in
  let sup = Mk_services.Supervisor.create k runtime ns in
  Drivers.Disk_driver.arm_faults k disk;
  let plan = Mach.Fault.create ~seed () in
  let injected = configure plan ~disk:(Machine.Disk.name disk) in
  sys.Mach.Sched.faults <- Some plan;
  let cached = ref (Some (F.File_server.port fs)) in
  let resolve () =
    match !cached with
    | Some p when not p.dead -> Some p
    | Some _ | None ->
        let p = Mk_services.Name_service.resolve_port ns ~path:service_path in
        cached := p;
        p
  in
  F.File_server.set_retry fs ~attempts:7 ~deadline:1_000_000
    ~backoff:1_000_000 ~resolve ();
  let sem = F.Vfs.os2_semantics in
  let lg = ledger () in
  let windows = ref [] in
  let finished = ref 0 in
  let total = clients * sessions in
  let driver = Mach.Kernel.task_create k ~name:"storm-driver" () in
  ignore
    (Mach.Kernel.thread_spawn k driver ~name:"storm-main" (fun () ->
         let health =
           {
             Mk_services.Supervisor.hc_interval = 60_000;
             hc_deadline = 30_000;
             hc_watchdog = watchdog;
             hc_port = (fun () -> Some (F.File_server.health_port fs));
           }
         in
         Mk_services.Supervisor.supervise sup ~path:service_path ~budget:16
           ~window:max_int ~backoff:25_000 ~health
           ~port:(F.File_server.port fs)
           ~restart:(fun () ->
             let t0 = Machine.now m in
             let p = F.File_server.restart fs in
             windows := (t0, Machine.now m) :: !windows;
             p)
           ();
         for c = 1 to clients do
           let client =
             Mach.Kernel.task_create k ~name:(Printf.sprintf "editor%d" c) ()
           in
           ignore
             (Mach.Kernel.thread_spawn k client ~name:"edit" (fun () ->
                  for s = 1 to sessions do
                    let path = Printf.sprintf "/os2/c%d_s%d.dat" c s in
                    let ok = run_session fs sem ~path in
                    note lg ~at:(Machine.global_now m) ok;
                    incr finished
                  done)
               : thread)
         done;
         (* the heartbeat scan keeps the event queue alive, so the run
            only quiesces once the supervisor is told to stand down *)
         while !finished < total do
           sleep sys 50_000
         done;
         Mk_services.Supervisor.stop sup)
      : thread);
  Mach.Kernel.run k;
  let wall = Machine.global_now m in
  sys.Mach.Sched.faults <- None;
  Drivers.Disk_driver.disarm_faults disk;
  let completed = List.length (List.filter snd lg.lg) in
  let p =
    {
      (base scenario) with
      fp_injected = injected ();
      fp_ops = total;
      fp_completed = completed;
      fp_lost = total - completed;
      fp_restarts = Mk_services.Supervisor.path_restarts sup ~path:service_path;
      fp_wedge_kills =
        Mk_services.Supervisor.path_wedge_kills sup ~path:service_path;
      fp_degraded = Mk_services.Supervisor.degraded_count sup;
      (* the volume as the server sees it, through its live cache (the
         scan's charges land after [wall]) *)
      fp_fsck_findings = List.length (F.Hpfs.fsck cache ());
    }
  in
  let p = with_availability p lg !windows ~wall in
  (* prefer the supervisor's own death-to-rebind MTTR when it has one *)
  match Mk_services.Supervisor.mttr sup ~path:service_path with
  | Some c -> { p with fp_mttr = float_of_int c }
  | None -> p

let fs_crash ~seed ~clients ~sessions ~crash_ppm () =
  let p =
    fs_scenario ~scenario:"fs-crash" ~seed ~clients ~sessions ~server_threads:2
      ~watchdog:4_000_000
      ~configure:(fun plan ~disk ->
        let crash = Mach.Fault.Crash_server and reorder = Mach.Fault.Reorder in
        Mach.Fault.set_rate plan ~site:"file-service" ~ppm:crash_ppm crash;
        Mach.Fault.set_rate plan ~site:disk ~ppm:crash_ppm reorder;
        fun () ->
          [
            ( "injected_crashes",
              Mach.Fault.injected plan ~site:"file-service" crash );
            ("injected_reorders", Mach.Fault.injected plan ~site:disk reorder);
          ])
      ()
  in
  { p with fp_crash_ppm = Some crash_ppm }

let fs_wedge ~seed ~clients ~sessions () =
  fs_scenario ~scenario:"fs-wedge" ~seed ~clients ~sessions ~server_threads:1
    ~watchdog:4_000_000
    ~configure:(fun plan ~disk:_ ->
      (* a scripted wedge far past the watchdog — which itself must sit
         above the slowest legitimate request: a single serve thread
         flushing a recovery-dirtied cache on sync can legitimately hold
         the loop for over a megacycle, and a too-tight watchdog turns
         that into a kill/restart/slow-sync cascade.  The port stays
         alive throughout; only the heartbeat's busy-since stamp betrays
         the wedge. *)
      Mach.Fault.script plan ~site:"file-service" ~n:8
        (Mach.Fault.Wedge_server 12_000_000);
      fun () -> [])
    ()

(* --- crash-loop: budget exhaustion, degraded mode, fast-fail -------------- *)

let crash_loop () =
  let m = Machine.create Machine.Config.pentium_133 in
  let boot = Mk_services.Bootstrap.boot m in
  let k = boot.Mk_services.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let runtime = boot.Mk_services.Bootstrap.runtime in
  let ns = Mk_services.Bootstrap.name_service_exn boot in
  let sup = Mk_services.Supervisor.create k runtime ns in
  let path = "/services/flaky" in
  let task = Mach.Kernel.task_create k ~name:"flaky" () in
  let make_port () = Mach.Port.allocate sys ~receiver:task ~name:"flaky" in
  let fastfail = ref (-1) in
  let deaths = ref 0 in
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"register" (fun () ->
         let p0 = make_port () in
         Mk_services.Supervisor.supervise sup ~path ~budget:3 ~backoff:2_000
           ~port:p0
           ~restart:(fun () -> make_port ())
           ())
      : thread);
  (* the crash loop itself: every incarnation is murdered moments after
     it appears, until the supervisor gives up and demotes *)
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"crasher" (fun () ->
         sleep sys 5_000;
         let rec crash () =
           if not (Mk_services.Supervisor.is_degraded sup ~path) then begin
             (match Mk_services.Supervisor.current_port sup ~path with
             | Some p when not p.dead ->
                 incr deaths;
                 Mach.Port.destroy sys p
             | Some _ | None -> ());
             sleep sys 4_000;
             crash ()
           end
         in
         crash ())
      : thread);
  let client = Mach.Kernel.task_create k ~name:"client" () in
  ignore
    (Mach.Kernel.thread_spawn k client ~name:"caller" (fun () ->
         while not (Mk_services.Supervisor.is_degraded sup ~path) do
           sleep sys 3_000
         done;
         sleep sys 2_000;
         match Mk_services.Name_service.resolve_port ns ~path with
         | None -> ()
         | Some p -> (
             let t0 = Machine.now m in
             match Mach.Rpc.call sys p (simple_message ~payload:P_unit ()) with
             | Ok { msg_payload = P_error Kern_unavailable; _ } ->
                 fastfail := Machine.now m - t0
             | Ok _ | Error _ -> fastfail := -1))
      : thread);
  Mach.Kernel.run k;
  Mk_services.Supervisor.stop sup;
  {
    (base "crash-loop") with
    fp_ops = !deaths;
    fp_completed = 0;
    fp_restarts = Mk_services.Supervisor.path_restarts sup ~path;
    fp_degraded = Mk_services.Supervisor.degraded_count sup;
    fp_fastfail_cycles = !fastfail;
  }

(* --- sweep ----------------------------------------------------------------- *)

let run ?(seed = 42) ?(endpoints = 16) ?(rounds = 40) ?(victim_ops = 12)
    ?(clients = 3) ?(sessions = 6) () =
  let crash = fs_crash ~seed ~clients ~sessions in
  (* last to first, the order the scenarios have always run in *)
  let loop = crash_loop () in
  let wedge = fs_wedge ~seed ~clients ~sessions () in
  let fs = crash ~crash_ppm:30_000 () in
  let storm = shard_storm ~victim_ops () in
  let golden = shard_golden ~endpoints ~rounds () in
  (* fs-crash at 30000 ppm is one of the five scenarios; the lower rates
     of its sweep run after them *)
  let sweep =
    List.map (fun crash_ppm -> crash ~crash_ppm ()) [ 0; 2_000; 10_000 ]
  in
  {
    fr_seed = seed;
    fr_points = [ golden; storm ] @ sweep @ [ fs; wedge; loop ];
  }

(* --- acceptance probes ------------------------------------------------------ *)

let total_lost r =
  List.fold_left (fun acc p -> acc + p.fp_lost) 0 r.fr_points

let total_fsck_findings r =
  List.fold_left (fun acc p -> acc + p.fp_fsck_findings) 0 r.fr_points

let min_availability r =
  List.fold_left
    (fun acc p ->
      let acc = if p.fp_in_ops > 0 then min acc p.fp_avail_in else acc in
      if p.fp_out_ops > 0 then min acc p.fp_avail_out else acc)
    1.0 r.fr_points

let golden_ok r = List.for_all (fun p -> p.fp_golden_ok) r.fr_points

let degraded_fastfail r =
  match List.find_opt (fun p -> p.fp_scenario = "crash-loop") r.fr_points with
  | Some p when p.fp_degraded > 0 -> p.fp_fastfail_cycles
  | Some _ | None -> -1

let to_json r =
  let open Bench_json in
  let point p =
    let ppm = Option.map (fun x -> ("crash_ppm", int x)) p.fp_crash_ppm in
    Obj
      ((("scenario", Str p.fp_scenario) :: Option.to_list ppm)
      @ List.map (fun (k, n) -> (k, int n)) p.fp_injected
      @ [ ("ops", int p.fp_ops); ("completed", int p.fp_completed);
          ("lost", int p.fp_lost); ("in_window_ops", int p.fp_in_ops);
          ("in_window_ok", int p.fp_in_ok);
          ("out_window_ops", int p.fp_out_ops);
          ("out_window_ok", int p.fp_out_ok);
          ("availability_in", fixed 3 p.fp_avail_in);
          ("availability_out", fixed 3 p.fp_avail_out);
          ("rate_in_per_mcycle", fixed 3 p.fp_rate_in);
          ("rate_out_per_mcycle", fixed 3 p.fp_rate_out);
          ("fault_windows", int p.fp_windows);
          ("mttr_cycles", fixed 0 p.fp_mttr); ("restarts", int p.fp_restarts);
          ("wedge_kills", int p.fp_wedge_kills);
          ("degraded", int p.fp_degraded);
          ("reboot_drops", int p.fp_reboot_drops);
          ("reincarnations", int p.fp_reincarnations);
          ("golden_ok", Bool p.fp_golden_ok);
          ("fastfail_cycles", int p.fp_fastfail_cycles);
          ("fsck_findings", int p.fp_fsck_findings) ])
  in
  Obj [ ("seed", int r.fr_seed); ("results", Arr (List.map point r.fr_points)) ]
