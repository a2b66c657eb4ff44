
type t = {
  machine : Machine.t;
  ktext : Ktext.t;
  sys : Sched.t;
  io : Io.t;
}

let boot machine =
  let ktext = Ktext.create machine in
  let sys = Sched.create machine ktext in
  let io = Io.create sys in
  { machine; ktext; sys; io }

let run t = Sched.run t.sys
let run_until t pred = Sched.run_until t.sys pred

let task_create t ~name ?personality ?text_bytes ?data_bytes () =
  Sched.task_create t.sys ~name ?personality ?text_bytes ?data_bytes ()

let thread_spawn t task ~name ?affinity ?bound body =
  Sched.thread_spawn t.sys task ~name ?affinity ?bound body
let tasks t = List.rev t.sys.Sched.tasks
