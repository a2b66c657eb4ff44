(* Machcheck glue: translates kernel objects ({!Ktypes}) into the
   integer/string events the standalone {!Check} library records.  Every
   entry point is a no-op costing one [None] match when no checker is
   attached — the [Fault] pattern — and charges no simulated cycles when
   one is. *)

open Ktypes

let right_of = function
  | Receive_right -> Check.R_receive
  | Send_right -> Check.R_send
  | Send_once_right -> Check.R_send_once

let on (sys : Sched.t) f =
  match sys.checks with None -> () | Some c -> f c sys.check_space

(* --- rights sanitizer --------------------------------------------------- *)

let right_allocated sys (task : task) (port : port) =
  on sys (fun c space ->
      Check.right_allocated c ~space ~task:task.task_id ~tname:task.task_name
        ~port:port.port_id ~pname:port.pname)

let right_inserted sys (task : task) (port : port) ~right ~now =
  on sys (fun c space ->
      Check.right_inserted c ~space ~task:task.task_id ~tname:task.task_name
        ~port:port.port_id ~pname:port.pname ~right:(right_of right)
        ~now:(right_of now))

let right_deallocated sys (task : task) (port : port) =
  on sys (fun c space ->
      Check.right_deallocated c ~space ~task:task.task_id ~port:port.port_id)

let dealloc_missing sys (task : task) ~name =
  on sys (fun c space ->
      Check.dealloc_missing c ~space ~task:task.task_id ~tname:task.task_name
        ~name)

let right_moved sys ~from_task ~to_task (port : port) right ~now =
  on sys (fun c space ->
      Check.right_moved c ~space ~from_task:from_task.task_id
        ~from_name:from_task.task_name ~to_task:to_task.task_id
        ~to_name:to_task.task_name ~port:port.port_id ~pname:port.pname
        ~right:(right_of right) ~now:(right_of now))

let port_destroyed sys (port : port) =
  on sys (fun c space -> Check.port_destroyed c ~space ~port:port.port_id)

let live_rights sys (task : task) =
  match sys.Sched.checks with
  | None -> 0
  | Some c -> Check.live_rights c ~space:sys.Sched.check_space ~task:task.task_id

let dead_rights sys (task : task) =
  match sys.Sched.checks with
  | None -> 0
  | Some c -> Check.dead_rights c ~space:sys.Sched.check_space ~task:task.task_id

(* --- deadlock detector -------------------------------------------------- *)
(* The wait edges themselves are reported by [Sched.wait]. *)

(* The threads of a port's receiving task: the holders that could
   unblock a sender waiting for queue room or a caller waiting for its
   RPC to be served.  Only an attached Machcheck reads them, so without
   one the list is not built. *)
let receiver_tids (sys : Sched.t) (port : port) =
  match (sys.checks, port.receiver) with
  | None, _ | Some _, None -> []
  | Some _, Some task -> List.map (fun th -> th.tid) task.threads

let retarget sys (th : thread) ~holders =
  on sys (fun c space -> Check.retarget c ~space ~tid:th.tid ~holders)

(* One finished hold of a lock, in simulated cycles. *)
let lock_hold (sys : Sched.t) ~res ~rdesc ~tid ~exclusive ~from ~until =
  on sys (fun c space ->
      Check.lock_hold c ~space ~res ~rdesc ~tid ~cpu:sys.active ~exclusive
        ~from:(int_of_float from) ~until:(int_of_float until))

(* --- buffer-lifetime sanitizer ------------------------------------------ *)

let buf_use (sys : Sched.t) addr =
  if addr <> 0 then Ktext.buffer_use sys.ktext addr

(* --- remap-ownership sanitizer ------------------------------------------ *)

let remap_moved sys (task : task) ~addr ~bytes =
  on sys (fun c space ->
      Check.remap_moved c ~space ~task:task.task_id ~tname:task.task_name
        ~addr ~bytes)

let remap_write sys (task : task) ~addr ~bytes =
  on sys (fun c space ->
      Check.remap_write c ~space ~task:task.task_id ~addr ~bytes)

let remap_clear sys (task : task) ~addr ~bytes =
  on sys (fun c space ->
      Check.remap_clear c ~space ~task:task.task_id ~addr ~bytes)

let cache_mapped_out sys ~addr ~pinned =
  on sys (fun c space -> Check.cache_mapped_out c ~space ~addr ~pinned)

let cache_unmapped sys ~addr =
  on sys (fun c space -> Check.cache_unmapped c ~space ~addr)

let cache_reused sys ~addr ~tag =
  on sys (fun c space -> Check.cache_reused c ~space ~addr ~tag)
