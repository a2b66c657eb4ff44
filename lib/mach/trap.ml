open Ktypes

let enter (sys : Sched.t) th chunks =
  let k = sys.ktext in
  Ktext.exec_in k th.t_task.text ~offset:0x100 ~bytes:144;
  Ktext.exec k ~frame:th.stack_base (Ktext.trap_entry :: chunks)

let leave (sys : Sched.t) th =
  Ktext.exec1 sys.ktext ~frame:th.stack_base Ktext.trap_exit

let thread_self (sys : Sched.t) =
  let th = Sched.self () in
  enter sys th
    [ Ktext.syscall_dispatch; Ktext.thread_self_service; Ktext.trap_exit ];
  th

let service (sys : Sched.t) ?(work = fun () -> ()) () =
  let th = Sched.self () in
  enter sys th [ Ktext.syscall_dispatch; Ktext.generic_service ];
  work ();
  leave sys th
