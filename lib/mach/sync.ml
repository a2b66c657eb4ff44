open Ktypes

(* A semaphore's count is its queue of units, each stamped with the clock
   of the signal that made it (0 for the initial value): a waiter takes
   the oldest unit and observes its stamp. *)
type semaphore = {
  s_name : string;
  s_reason : string;  (* what a waiter blocks on *)
  s_units : float Queue.t;
  s_waiters : thread Queue.t;
}

type event = {
  e_name : string;
  e_reason : string;  (* what a waiter blocks on *)
  e_waiters : thread Queue.t;
}

(* The kernel's lock: its holders — one exclusive holder or any number of
   shared ones — with the clock at which each hold began, its FIFO of
   waiters, the two release stamps that keep it exclusive in simulated
   time, and its counters. *)
type lock = {
  l_sys : Sched.t;
  l_res : string;  (* Machcheck resource key *)
  l_rdesc : string;  (* Machcheck names it "l_rdesc(l_rname)" *)
  l_rname : string;
  l_reason : string;  (* what a waiter blocks on *)
  l_wants_shared : thread -> bool;
  mutable l_holders : thread array;  (* [0, l_count) hold it *)
  mutable l_since : float array;  (* per holder: the clock its hold began *)
  mutable l_count : int;
  mutable l_shared : bool;  (* the holders share it *)
  l_waiters : thread Queue.t;
  (* boxed, so an acquire reads and observes them without allocating *)
  mutable l_end : float;  (* end of every released hold *)
  mutable l_end_exclusive : float;  (* end of every released exclusive hold *)
  mutable l_shared_holds : int;
  mutable l_exclusive_holds : int;
  mutable l_waits : int;
  mutable l_wait_cycles : float;
}

type mutex = lock

let next_sync_id = ref 0

let fresh_sync_id () =
  incr next_sync_id;
  !next_sync_id

let trap_around (sys : Sched.t) inner =
  let th = Sched.self () in
  Trap.enter sys th [ Ktext.syscall_dispatch ];
  let r = inner th th.stack_base in
  Trap.leave sys th;
  r

(* --- semaphores --------------------------------------------------------- *)

let semaphore_create (sys : Sched.t) ~name ~value =
  Ktext.exec sys.ktext [ Ktext.sync_fast ];
  let units = Queue.create () in
  for _ = 1 to value do
    Queue.add 0. units
  done;
  {
    s_name = name;
    s_reason = "sem-wait:" ^ name;
    s_units = units;
    s_waiters = Queue.create ();
  }

let semaphore_wait (sys : Sched.t) s =
  trap_around sys (fun th frame ->
      let k = sys.ktext in
      Ktext.exec k ~frame [ Ktext.sync_fast ];
      let rec wait () =
        match Queue.take_opt s.s_units with
        | Some stamp ->
            Sched.observe sys stamp;
            Kern_success
        | None -> (
            Ktext.exec k ~frame [ Ktext.sync_block ];
            match
              Sched.wait sys ~q:s.s_waiters th
                ~rdesc:"sem" ~rname:s.s_name ~holders:[] s.s_reason
            with
            | Kern_success -> wait ()
            | err -> err)
      in
      wait ())

let semaphore_wait_timeout (sys : Sched.t) s ~timeout =
  Clock.with_deadline sys ~cycles:timeout (fun () -> semaphore_wait sys s)

let semaphore_signal (sys : Sched.t) s =
  trap_around sys (fun _th frame ->
      let k = sys.ktext in
      Ktext.exec k ~frame [ Ktext.sync_fast ];
      Queue.add (Sched.now sys) s.s_units;
      ignore (Sched.wake_one sys s.s_waiters : bool))

let semaphore_value s = Queue.length s.s_units
let semaphore_waiters s = Queue.length s.s_waiters

(* --- the lock ------------------------------------------------------------ *)

(* The FIFO reader/writer lock of sync.mli.  A section that never blocks
   runs atomically on the host, so a CPU whose clock lags could
   otherwise take a lock the host has already released at a simulated
   time inside, or just before, a hold it conflicts with: hence the two
   release stamps an acquire observes. *)

let lock_create (sys : Sched.t) ~name ~rdesc ~rname ~shared =
  {
    l_sys = sys;
    l_res = "lock:" ^ string_of_int (fresh_sync_id ());
    l_rdesc = rdesc;
    l_rname = rname;
    l_reason = name;
    l_wants_shared = shared;
    l_holders = [||];
    l_since = [||];
    l_count = 0;
    l_shared = false;
    l_waiters = Queue.create ();
    l_end = 0.;
    l_end_exclusive = 0.;
    l_shared_holds = 0;
    l_exclusive_holds = 0;
    l_waits = 0;
    l_wait_cycles = 0.;
  }

(* [th]'s slot among the holders, or -1. *)
let rec holder_slot l th i =
  if i >= l.l_count then -1
  else if l.l_holders.(i) == th then i
  else holder_slot l th (i + 1)

let lock_holds l th = holder_slot l th 0 >= 0
let lock_holders l = List.init l.l_count (fun i -> l.l_holders.(i))
let holder_tids l = List.init l.l_count (fun i -> l.l_holders.(i).tid)

let grant l th ~shared =
  let n = l.l_count in
  if n = Array.length l.l_holders then begin
    let cap = Int.max 4 (2 * n) in
    let holders = Array.make cap th and since = Array.make cap 0. in
    Array.blit l.l_holders 0 holders 0 n;
    Array.blit l.l_since 0 since 0 n;
    l.l_holders <- holders;
    l.l_since <- since
  end;
  l.l_holders.(n) <- th;
  l.l_count <- n + 1;
  l.l_shared <- shared

(* Point every waiter's wait-for edge at the current holders. *)
let retarget_waiters l =
  match l.l_sys.Sched.checks with
  | Some _ when not (Queue.is_empty l.l_waiters) ->
      let holders = holder_tids l in
      Queue.iter (fun w -> Mcheck.retarget l.l_sys w ~holders) l.l_waiters
  | Some _ | None -> ()

(* Wait in the kernel until a release hands the lock to [th].  A wake
   that finds the lock free (the waiter gave up its queue place) takes
   it; one that finds other holders waits again, on them. *)
let rec wait_for_handoff l th =
  (* only an attached Machcheck reads the holders *)
  let holders =
    match l.l_sys.Sched.checks with Some _ -> holder_tids l | None -> []
  in
  ignore
    (Sched.wait l.l_sys ~q:l.l_waiters th ~rdesc:l.l_rdesc ~rname:l.l_rname
       ~holders l.l_reason
      : kern_return);
  if lock_holds l th then ()
  else if l.l_count = 0 then grant l th ~shared:(l.l_wants_shared th)
  else wait_for_handoff l th

let lock_acquire l th =
  let shared = l.l_wants_shared th in
  let t0 = Sched.now l.l_sys in
  if l.l_count = 0 || (shared && l.l_shared && Queue.is_empty l.l_waiters)
  then grant l th ~shared
  else wait_for_handoff l th;
  Sched.observe l.l_sys (if shared then l.l_end_exclusive else l.l_end);
  let now = Sched.now l.l_sys in
  if now > t0 then begin
    l.l_waits <- l.l_waits + 1;
    l.l_wait_cycles <- l.l_wait_cycles +. (now -. t0)
  end;
  if shared then l.l_shared_holds <- l.l_shared_holds + 1
  else l.l_exclusive_holds <- l.l_exclusive_holds + 1;
  l.l_since.(holder_slot l th 0) <- now

(* Hand a free lock to the oldest waiter still blocked, and when that
   one is shared, to every shared waiter directly behind it. *)
let rec handoff l =
  if not (Queue.is_empty l.l_waiters) then begin
    let w = Queue.peek l.l_waiters in
    match w.state with
    | Th_blocked _ ->
        let shared = l.l_wants_shared w in
        if l.l_count = 0 || (shared && l.l_shared) then begin
          ignore (Queue.take l.l_waiters : thread);
          grant l w ~shared;
          Mcheck.retarget l.l_sys w ~holders:[];
          Sched.wake l.l_sys w;
          if shared then handoff l
        end
    | Th_runnable | Th_running | Th_terminated ->
        ignore (Queue.take l.l_waiters : thread);
        handoff l
  end

(* End [th]'s hold: report it, advance the release stamps, and when the
   lock falls free pass it on.  The new holders stop waiting on anyone;
   the waiters behind them now wait on them — a wait-for edge left
   pointing at a former holder would close a false cycle the moment that
   thread queues again. *)
let lock_release l th =
  let i = holder_slot l th 0 in
  if i >= 0 then begin
    let now = Sched.now l.l_sys in
    let exclusive = not l.l_shared in
    (match l.l_sys.Sched.checks with
    | None -> ()
    | Some _ ->
        Mcheck.lock_hold l.l_sys ~res:l.l_res
          ~rdesc:(l.l_rdesc ^ "(" ^ l.l_rname ^ ")")
          ~tid:th.tid
          ~exclusive ~from:l.l_since.(i) ~until:now);
    if now > l.l_end then l.l_end <- now;
    if exclusive && now > l.l_end_exclusive then l.l_end_exclusive <- now;
    let last = l.l_count - 1 in
    l.l_holders.(i) <- l.l_holders.(last);
    l.l_since.(i) <- l.l_since.(last);
    l.l_count <- last;
    if last = 0 then handoff l;
    retarget_waiters l
  end

type lock_stats = {
  ls_shared : int;
  ls_exclusive : int;
  ls_waits : int;
  ls_wait_cycles : int;
}

let lock_stats l =
  {
    ls_shared = l.l_shared_holds;
    ls_exclusive = l.l_exclusive_holds;
    ls_waits = l.l_waits;
    ls_wait_cycles = int_of_float (Float.round l.l_wait_cycles);
  }

(* --- mutexes: the lock, always held exclusive, behind a trap ------------ *)

let mutex_create (sys : Sched.t) ~name =
  Ktext.exec sys.ktext [ Ktext.sync_fast ];
  lock_create sys ~name:("mutex-lock:" ^ name) ~rdesc:"mutex" ~rname:name
    ~shared:(fun _ -> false)

let mutex_lock (sys : Sched.t) m =
  trap_around sys (fun th frame ->
      Ktext.exec sys.ktext ~frame
        (if m.l_count = 0 then [ Ktext.sync_fast ]
         else [ Ktext.sync_fast; Ktext.sync_block ]);
      lock_acquire m th)

(* A wrong-holder unlock raises before any state changes: the holder
   edge in the wait-for graph stays with the true holder. *)
let mutex_unlock (sys : Sched.t) m =
  let th = Sched.self () in
  if not (lock_holds m th) then raise (Kern_error Kern_invalid_argument);
  trap_around sys (fun _th frame ->
      Ktext.exec sys.ktext ~frame [ Ktext.sync_fast ];
      lock_release m th)

(* --- events -------------------------------------------------------------- *)

let event_create (sys : Sched.t) ~name =
  Ktext.exec sys.ktext [ Ktext.sync_fast ];
  {
    e_name = name;
    e_reason = "event-wait:" ^ name;
    e_waiters = Queue.create ();
  }

let event_wait (sys : Sched.t) e =
  trap_around sys (fun th frame ->
      Ktext.exec sys.ktext ~frame [ Ktext.sync_block ];
      Sched.wait sys ~q:e.e_waiters th
        ~rdesc:"event" ~rname:e.e_name ~holders:[] e.e_reason)

let event_signal (sys : Sched.t) e =
  trap_around sys (fun _th frame ->
      Ktext.exec sys.ktext ~frame [ Ktext.sync_fast ];
      ignore (Sched.wake_one sys e.e_waiters : bool))

let event_broadcast (sys : Sched.t) e =
  trap_around sys (fun _th frame ->
      Ktext.exec sys.ktext ~frame [ Ktext.sync_fast ];
      while Sched.wake_one sys e.e_waiters do
        ()
      done)

let event_waiters e = Queue.length e.e_waiters
