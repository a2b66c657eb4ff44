open Ktypes

type semaphore = {
  s_id : int;  (* process-unique: the wait-for graph's resource key *)
  s_name : string;
  mutable s_value : int;
  s_waiters : thread Queue.t;
}

type mutex = { m_sem : semaphore; mutable m_owner : thread option }
type event = { e_id : int; e_name : string; e_waiters : thread Queue.t }

let next_sync_id = ref 0

let fresh_sync_id () =
  incr next_sync_id;
  !next_sync_id

let sem_res s = "sem:" ^ string_of_int s.s_id
let evt_res e = "evt:" ^ string_of_int e.e_id

let trap_around (sys : Sched.t) inner =
  let th = Sched.self () in
  Trap.enter sys th [ Ktext.syscall_dispatch ];
  let r = inner th th.stack_base in
  Trap.leave sys th;
  r

let semaphore_create (sys : Sched.t) ~name ~value =
  Ktext.exec sys.ktext [ Ktext.sync_fast ];
  { s_id = fresh_sync_id (); s_name = name; s_value = value;
    s_waiters = Queue.create () }

let semaphore_wait (sys : Sched.t) s =
  trap_around sys (fun th frame ->
      let k = sys.ktext in
      Ktext.exec k ~frame [ Ktext.sync_fast ];
      let rec wait () =
        if s.s_value > 0 then begin
          s.s_value <- s.s_value - 1;
          Kern_success
        end
        else begin
          Ktext.exec k ~frame [ Ktext.sync_block ];
          match
            Sched.wait sys ~q:s.s_waiters th ~res:(sem_res s)
              ~rdesc:("sem(" ^ s.s_name ^ ")") ~holders:[]
              ("sem-wait:" ^ s.s_name)
          with
          | Kern_success -> wait ()
          | err -> err
        end
      in
      wait ())

let semaphore_wait_timeout (sys : Sched.t) s ~timeout =
  Clock.with_deadline sys ~cycles:timeout (fun () -> semaphore_wait sys s)

let semaphore_signal (sys : Sched.t) s =
  trap_around sys (fun _th frame ->
      let k = sys.ktext in
      Ktext.exec k ~frame [ Ktext.sync_fast ];
      s.s_value <- s.s_value + 1;
      ignore (Sched.wake_one sys s.s_waiters : bool))

let semaphore_value s = s.s_value
let semaphore_waiters s = Queue.length s.s_waiters

let mutex_create sys ~name =
  { m_sem = semaphore_create sys ~name ~value:1; m_owner = None }

let mutex_lock (sys : Sched.t) m =
  let r = semaphore_wait sys m.m_sem in
  if r = Kern_success then begin
    let th = Sched.self () in
    m.m_owner <- Some th;
    Mcheck.acquired sys th ~res:(sem_res m.m_sem)
  end;
  r

(* Wrong-holder unlocks raise *before* any state changes: the owner edge
   in the wait-for graph stays with the true holder, and the semaphore
   is not signalled on behalf of a thread that never held it. *)
let mutex_unlock (sys : Sched.t) m =
  let th = Sched.self () in
  (match m.m_owner with
  | Some owner when owner.tid = th.tid ->
      m.m_owner <- None;
      Mcheck.released sys ~res:(sem_res m.m_sem)
  | Some _ | None -> raise (Kern_error Kern_invalid_argument));
  semaphore_signal sys m.m_sem

let event_create (sys : Sched.t) ~name =
  Ktext.exec sys.ktext [ Ktext.sync_fast ];
  { e_id = fresh_sync_id (); e_name = name; e_waiters = Queue.create () }

let event_wait (sys : Sched.t) e =
  trap_around sys (fun th frame ->
      Ktext.exec sys.ktext ~frame [ Ktext.sync_block ];
      Sched.wait sys ~q:e.e_waiters th ~res:(evt_res e)
        ~rdesc:("event(" ^ e.e_name ^ ")") ~holders:[]
        ("event-wait:" ^ e.e_name))

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
