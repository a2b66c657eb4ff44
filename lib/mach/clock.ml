open Ktypes

type timer = { mutable cancelled : bool; mutable fired : int }

let get_time (sys : Sched.t) =
  Option.iter
    (fun th -> Trap.enter sys th [ Ktext.timer_service; Ktext.trap_exit ])
    sys.current;
  Machine.now sys.machine

let sleep_for (sys : Sched.t) ~cycles =
  let th = Sched.self () in
  Trap.enter sys th [ Ktext.timer_service ];
  Machine.Event_queue.schedule sys.machine.Machine.events
    ~at:(Machine.now sys.machine + Int.max 1 cycles)
    (fun () ->
      Ktext.exec sys.ktext [ Ktext.irq_entry; Ktext.timer_service ];
      Sched.wake sys th);
  let r = Sched.block "sleep" in
  Trap.leave sys th;
  r

let arm_oneshot (sys : Sched.t) ~after f =
  let t = { cancelled = false; fired = 0 } in
  Machine.Event_queue.schedule sys.machine.Machine.events
    ~at:(Machine.now sys.machine + Int.max 1 after)
    (fun () ->
      if not t.cancelled then begin
        Ktext.exec sys.ktext [ Ktext.irq_entry; Ktext.timer_service ];
        t.fired <- t.fired + 1;
        f ()
      end);
  t

let arm_periodic (sys : Sched.t) ~every ?count f =
  let t = { cancelled = false; fired = 0 } in
  let every = Int.max 1 every in
  let rec arm () =
    Machine.Event_queue.schedule sys.machine.Machine.events
      ~at:(Machine.now sys.machine + every)
      (fun () ->
        if
          (not t.cancelled)
          && match count with Some c -> t.fired < c | None -> true
        then begin
          Ktext.exec sys.ktext [ Ktext.irq_entry; Ktext.timer_service ];
          t.fired <- t.fired + 1;
          f ();
          (match count with
          | Some c when t.fired >= c -> ()
          | Some _ | None -> arm ())
        end)
  in
  arm ();
  t

let cancel t = t.cancelled <- true
let fired t = t.fired

let with_deadline (sys : Sched.t) ~cycles f =
  let th = Sched.self () in
  (* [live] guards the expiry: once the body finished (or raised), a
     later firing must not wake the thread out of some unrelated wait. *)
  let live = ref true in
  let t =
    arm_oneshot sys ~after:cycles (fun () ->
        if !live then Sched.wake sys ~result:Kern_timed_out th)
  in
  Fun.protect
    ~finally:(fun () ->
      live := false;
      cancel t)
    f
