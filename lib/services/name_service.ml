open Mach.Ktypes

type payload +=
  | NS_bind of {
      ns_path : string;
      ns_attributes : (string * string) list;
      ns_target : port option;
    }
  | NS_resolve of string
  | NS_unbind of string
  | NS_list of string
  | NS_r_ok of bool
  | NS_r_entry of Name_db.entry option
  | NS_r_names of string list

type t = {
  kernel : Mach.Kernel.t;
  runtime : Runtime.t;
  ns_task : task;
  ns_port : port;
  database : Name_db.t;
  mutable served : int;
}

let op_bind = 1
let op_resolve = 2
let op_unbind = 3
let op_list = 4

(* The X.500-style machinery is heavyweight: a fixed parse/ACL prologue
   plus a per-component walk and per-entry attribute evaluation. *)
let charge_prologue t =
  Mach.Ktext.exec_in t.kernel.Mach.Kernel.ktext t.ns_task.text ~offset:0x400
    ~bytes:1472

let charge_walk t ~path =
  let steps = Name_db.steps ~path in
  for _ = 1 to max 1 steps do
    Mach.Ktext.exec_in t.kernel.Mach.Kernel.ktext t.ns_task.text ~offset:0xa00
      ~bytes:224
  done

let charge_per_entry t n =
  for _ = 1 to n do
    Mach.Ktext.exec_in t.kernel.Mach.Kernel.ktext t.ns_task.text ~offset:0xb00
      ~bytes:160
  done

let handle t (msg : message) : message_builder =
  t.served <- t.served + 1;
  charge_prologue t;
  let reply payload = simple_message ~op:msg.msg_op ~inline_bytes:64 ~payload () in
  match msg.msg_payload with
  | NS_bind { ns_path; ns_attributes; ns_target } ->
      charge_walk t ~path:ns_path;
      let ok =
        match
          Name_db.bind t.database ~path:ns_path ~attributes:ns_attributes
            ?port:ns_target ()
        with
        | Ok () -> true
        | Error _ -> false
      in
      reply (NS_r_ok ok)
  | NS_resolve path ->
      charge_walk t ~path;
      reply (NS_r_entry (Name_db.resolve t.database ~path))
  | NS_unbind path ->
      charge_walk t ~path;
      reply (NS_r_ok (Name_db.unbind t.database ~path))
  | NS_list path ->
      charge_walk t ~path;
      let names = Name_db.list_children t.database ~path in
      charge_per_entry t (List.length names);
      reply (NS_r_names names)
  | _ -> reply (NS_r_ok false)

let start kernel runtime =
  let sys = kernel.Mach.Kernel.sys in
  let ns_task =
    Mach.Sched.with_uncharged sys (fun () ->
        Mach.Kernel.task_create kernel ~name:"name-server" ~personality:"pn"
          ~text_bytes:(32 * 1024) ())
  in
  Runtime.attach runtime ns_task;
  let ns_port =
    Mach.Sched.with_uncharged sys (fun () ->
        Mach.Port.allocate sys ~receiver:ns_task ~name:"name-service")
  in
  let t =
    {
      kernel;
      runtime;
      ns_task;
      ns_port;
      database = Name_db.create ();
      served = 0;
    }
  in
  ignore
    (Mach.Kernel.thread_spawn kernel ns_task ~name:"ns-serve" (fun () ->
         Mach.Rpc.serve sys ns_port (handle t))
      : thread);
  t

let port t = t.ns_port
let task t = t.ns_task
let db t = t.database

let request_bytes ~path extra = 64 + String.length path + extra

let rpc t ~op ~path ~extra payload =
  let sys = t.kernel.Mach.Kernel.sys in
  match
    Mach.Rpc.call sys t.ns_port
      (simple_message ~op ~inline_bytes:(request_bytes ~path extra) ~payload ())
  with
  | Ok reply -> reply.msg_payload
  | Error err -> P_error err

let bind t ~path ?(attributes = []) ?target () =
  let extra =
    List.fold_left
      (fun acc (k, v) -> acc + String.length k + String.length v)
      0 attributes
  in
  match
    rpc t ~op:op_bind ~path ~extra
      (NS_bind { ns_path = path; ns_attributes = attributes; ns_target = target })
  with
  | NS_r_ok ok -> ok
  | P_error _ -> false  (* transport or server failure, surfaced explicitly *)
  | _ -> false

let resolve t ~path =
  match rpc t ~op:op_resolve ~path ~extra:0 (NS_resolve path) with
  | NS_r_entry e -> e
  | P_error _ -> None
  | _ -> None

let resolve_port t ~path =
  match resolve t ~path with Some e -> e.Name_db.bound_port | None -> None

let unbind t ~path =
  match rpc t ~op:op_unbind ~path ~extra:0 (NS_unbind path) with
  | NS_r_ok ok -> ok
  | P_error _ -> false
  | _ -> false

let list_children t ~path =
  match rpc t ~op:op_list ~path ~extra:0 (NS_list path) with
  | NS_r_names names -> names
  | _ -> []

let requests_served t = t.served
