open Mach.Ktypes

(* Heartbeat monitoring for one supervised server: ping its health port
   every [hc_interval] cycles with an RPC deadline, and treat a pong
   whose busy-since stamp is older than [hc_watchdog] as a wedged main
   loop (the per-request watchdog). *)
type health = {
  hc_interval : int;
  hc_deadline : int;
  hc_watchdog : int;
  hc_port : unit -> port option;
}

(* A supervised server: how to restart it, where it is registered, its
   windowed restart budget, and what must come back before it. *)
type entry = {
  e_path : string;  (* name-service registration path *)
  e_restart : unit -> port;  (* recreate the server; new service port *)
  e_budget : int;  (* restarts allowed inside one window *)
  e_window : int;  (* cycles *)
  e_pace : Mach.Backoff.policy;  (* backoff between rapid restarts *)
  e_deps : string list;  (* paths that must restart before this one *)
  e_health : health option;
  mutable e_port : port;
  mutable e_restarts : int;
  mutable e_recent : int list;  (* restart stamps, newest first *)
  mutable e_degraded : bool;
  mutable e_wedge_kills : int;
  mutable e_last_ping : int;
  mutable e_died_at : int;  (* death stamp of the outage in hand; -1 idle *)
  mutable e_mttr_sum : int;
  mutable e_mttr_n : int;
}

type t = {
  kernel : Mach.Kernel.t;
  ns : Name_service.t;
  sup_task : task;
  mutable entries : entry list;
  pending : entry Queue.t;  (* dead servers awaiting restart *)
  mutable sup_thread : thread option;
  mutable running : bool;
  mutable total_restarts : int;
  mutable total_wedge_kills : int;
  mutable total_degraded : int;
  mutable degraded_port : port option;  (* shared fast-fail responder *)
}

let sys t = t.kernel.Mach.Kernel.sys
let now t = Machine.global_now t.kernel.Mach.Kernel.machine

(* Supervision bookkeeping runs as ordinary user code in the
   supervisor's task. *)
let charge t ~offset ~bytes =
  Mach.Ktext.exec_in t.kernel.Mach.Kernel.ktext t.sup_task.text ~offset ~bytes

let charge_scan t = charge t ~offset:0x200 ~bytes:192
let charge_restart t = charge t ~offset:0x400 ~bytes:512

(* Wake the supervisor thread, but only out of its own idle wait: if it
   is blocked inside one of its own RPCs (a name-service rebind) or a
   pacing sleep, a wake would corrupt that call — the pending queue is
   re-checked before the loop blocks again, so nothing is lost. *)
let poke t =
  match t.sup_thread with
  | Some th when th.state = Th_blocked "supervisor-wait" ->
      Mach.Sched.wake (sys t) th
  | Some _ | None -> ()

let rebind t path port =
  ignore (Name_service.unbind t.ns ~path : bool);
  ignore (Name_service.bind t.ns ~path ~target:port () : bool)

let watch t e =
  Mach.Port.request_notification (sys t) e.e_port (fun () ->
      if e.e_died_at < 0 then e.e_died_at <- now t;
      Queue.add e t.pending;
      poke t)

(* The shared fast-fail responder every degraded path is bound to: it
   answers [Kern_unavailable] immediately, so clients of a demoted
   server get a crisp error instead of hanging out a deadline. *)
let degraded_responder t =
  match t.degraded_port with
  | Some p when not p.dead -> p
  | Some _ | None ->
      let s = sys t in
      let port = Mach.Port.allocate s ~receiver:t.sup_task ~name:"degraded" in
      ignore
        (Mach.Kernel.thread_spawn t.kernel t.sup_task ~name:"sup-degraded"
           (fun () ->
             Mach.Rpc.serve s port (fun _req ->
                 simple_message ~payload:(P_error Kern_unavailable) ()))
          : thread);
      t.degraded_port <- Some port;
      port

let demote t e =
  e.e_degraded <- true;
  e.e_died_at <- -1;
  t.total_degraded <- t.total_degraded + 1;
  Mach.Mcheck.on (sys t) (fun c space ->
      Check.reinc_budget_exhausted c ~space ~path:e.e_path
        ~restarts:e.e_restarts);
  rebind t e.e_path (degraded_responder t)

let handle_death t e =
  charge_scan t;
  if (not e.e_degraded) && e.e_port.dead then begin
    let t0 = now t in
    e.e_recent <- List.filter (fun ts -> t0 - ts < e.e_window) e.e_recent;
    if List.length e.e_recent >= e.e_budget then demote t e
    else begin
      let burst = List.length e.e_recent in
      e.e_recent <- t0 :: e.e_recent;
      e.e_restarts <- e.e_restarts + 1;
      t.total_restarts <- t.total_restarts + 1;
      (* crash-loop pacing: the second and later deaths inside one
         window back off exponentially, with per-entry jitter so a
         simultaneous wipe-out doesn't restart in lockstep *)
      if burst > 0 then
        ignore
          (Mach.Clock.sleep_for (sys t)
             ~cycles:(Mach.Backoff.delay e.e_pace ~attempt:burst)
            : kern_return);
      charge_restart t;
      let port = e.e_restart () in
      e.e_port <- port;
      rebind t e.e_path port;
      watch t e;
      if e.e_died_at >= 0 then begin
        e.e_mttr_sum <- e.e_mttr_sum + (now t - e.e_died_at);
        e.e_mttr_n <- e.e_mttr_n + 1;
        e.e_died_at <- -1
      end
    end
  end

(* Drain in dependency order: an entry whose [e_deps] names another
   pending entry waits for it — drivers come back before the servers on
   top of them, servers before the personalities.  A dependency cycle
   falls back to arrival order rather than deadlocking the drain. *)
let dequeue_ordered t =
  if Queue.is_empty t.pending then None
  else begin
    let all = List.of_seq (Queue.to_seq t.pending) in
    let blocked e =
      List.exists
        (fun dep -> List.exists (fun p -> p != e && p.e_path = dep) all)
        e.e_deps
    in
    let pick =
      match List.find_opt (fun e -> not (blocked e)) all with
      | Some e -> e
      | None -> List.hd all
    in
    Queue.clear t.pending;
    List.iter (fun e -> if e != pick then Queue.add e t.pending) all;
    Some pick
  end

let rec drain t =
  match dequeue_ordered t with
  | Some e ->
      handle_death t e;
      drain t
  | None -> ()

(* Kill a live-but-stuck server: tear down its health port (the health
   thread exits) and then the service port, which fires the dead-name
   watch — from there a wedge is just another death to reincarnate. *)
let wedge_kill t e =
  e.e_wedge_kills <- e.e_wedge_kills + 1;
  t.total_wedge_kills <- t.total_wedge_kills + 1;
  e.e_died_at <- now t;
  (match e.e_health with
  | Some hc -> (
      match hc.hc_port () with
      | Some hp when not hp.dead -> Mach.Port.destroy (sys t) hp
      | Some _ | None -> ())
  | None -> ());
  if not e.e_port.dead then Mach.Port.destroy (sys t) e.e_port

let ping t e hc =
  charge_scan t;
  match hc.hc_port () with
  | None -> ()
  | Some hp when hp.dead -> ()  (* a crash: the dead-name watch covers it *)
  | Some hp -> (
      match
        Mach.Rpc.call (sys t) hp ~deadline:hc.hc_deadline
          (Mach.Health.ping_msg ())
      with
      | Error _ -> wedge_kill t e  (* even the health thread is stuck *)
      | Ok reply -> (
          match reply.msg_payload with
          | Mach.Health.H_pong { hp_busy_since; _ }
            when hp_busy_since >= 0 && now t - hp_busy_since > hc.hc_watchdog
            ->
              (* alive but not making progress: the request in hand has
                 outlived its watchdog *)
              wedge_kill t e
          | _ -> ()))

let scan_health t =
  List.iter
    (fun e ->
      match e.e_health with
      | Some hc when (not e.e_degraded) && not e.e_port.dead ->
          if now t - e.e_last_ping >= hc.hc_interval then begin
            e.e_last_ping <- now t;
            ping t e hc
          end
      | Some _ | None -> ())
    t.entries

let has_health t =
  List.exists (fun e -> e.e_health <> None && not e.e_degraded) t.entries

let next_tick t =
  List.fold_left
    (fun acc e ->
      match e.e_health with
      | Some hc when not e.e_degraded -> min acc hc.hc_interval
      | Some _ | None -> acc)
    max_int t.entries

(* The idle wait.  [Clock.sleep_for] is off the table here: its timer
   wakes the thread unconditionally when it expires, so a poke arriving
   first would leave a stray wake to corrupt whatever the supervisor
   blocks on next.  A guarded one-shot (fired through [poke], cancelled
   on the way out) can only ever hit this exact wait — and it is armed
   at all only while some entry needs periodic heartbeat scans, so a
   purely notification-driven supervisor leaves the machine free to
   quiesce. *)
let idle_wait t =
  let timer =
    if has_health t then
      Some (Mach.Clock.arm_oneshot (sys t) ~after:(next_tick t) (fun () -> poke t))
    else None
  in
  ignore (Mach.Sched.block "supervisor-wait" : kern_return);
  Option.iter Mach.Clock.cancel timer

let rec loop t =
  if t.running then begin
    drain t;
    scan_health t;
    (* the missed-wake fix: a death that arrived while we were busy
       restarting (poke finds us unblocked and does nothing) must be
       drained now, not after an idle tick *)
    if Queue.is_empty t.pending && t.running then idle_wait t;
    loop t
  end

let create (kernel : Mach.Kernel.t) runtime ns =
  let s = kernel.Mach.Kernel.sys in
  Mach.Sched.with_uncharged s (fun () ->
      let sup_task =
        Mach.Kernel.task_create kernel ~name:"supervisor" ~personality:"pn" ()
      in
      Runtime.attach runtime sup_task;
      let t =
        {
          kernel;
          ns;
          sup_task;
          entries = [];
          pending = Queue.create ();
          sup_thread = None;
          running = true;
          total_restarts = 0;
          total_wedge_kills = 0;
          total_degraded = 0;
          degraded_port = None;
        }
      in
      let th =
        Mach.Kernel.thread_spawn kernel sup_task ~name:"supervisor" (fun () ->
            loop t)
      in
      t.sup_thread <- Some th;
      t)

let supervise t ~path ?(budget = 8) ?(window = 50_000_000) ?(backoff = 25_000)
    ?(deps = []) ?health ~port ~restart () =
  let e =
    {
      e_path = path;
      e_restart = restart;
      e_budget = max 1 budget;
      e_window = max 1 window;
      e_pace = Mach.Backoff.policy ~seed:(Hashtbl.hash path) ~base:backoff ();
      e_deps = deps;
      e_health = health;
      e_port = port;
      e_restarts = 0;
      e_recent = [];
      e_degraded = false;
      e_wedge_kills = 0;
      e_last_ping = now t;
      e_died_at = -1;
      e_mttr_sum = 0;
      e_mttr_n = 0;
    }
  in
  t.entries <- e :: t.entries;
  rebind t e.e_path port;
  watch t e;
  (* the supervisor may already be parked in an idle wait armed (or not)
     for the entry set as it was before this registration: kick it so
     the wait is re-entered with the new entry's heartbeat tick — a
     health config registered against a sleeping supervisor would
     otherwise never be scanned until some other server died *)
  poke t

let stop t =
  t.running <- false;
  poke t

let find t ~path = List.find_opt (fun e -> e.e_path = path) t.entries

let restarts t = t.total_restarts
let wedge_kills t = t.total_wedge_kills
let degraded_count t = t.total_degraded

let gave_up t = List.exists (fun e -> e.e_degraded) t.entries

let is_degraded t ~path =
  match find t ~path with Some e -> e.e_degraded | None -> false

let path_restarts t ~path =
  match find t ~path with Some e -> e.e_restarts | None -> 0

let path_wedge_kills t ~path =
  match find t ~path with Some e -> e.e_wedge_kills | None -> 0

let mttr t ~path =
  match find t ~path with
  | Some e when e.e_mttr_n > 0 -> Some (e.e_mttr_sum / e.e_mttr_n)
  | Some _ | None -> None

let current_port t ~path =
  match find t ~path with
  | Some e when (not e.e_degraded) && not e.e_port.dead -> Some e.e_port
  | Some _ | None -> None

let task t = t.sup_task
