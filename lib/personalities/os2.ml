open Mach.Ktypes

type process = {
  p_pid : int;
  p_task : task;
  p_mem : Os2_memory.t;
  mutable p_alive : bool;
}

type t = {
  kernel : Mach.Kernel.t;
  runtime : Mk_services.Runtime.t;
  fs : Fileserver.File_server.t;
  os2_task : task;
  os2_port : port;
  doscalls : Machine.Layout.region;
  mutable processes : process list;
  mutable next_pid : int;
}

type payload +=
  | OS2_exec of string
  | OS2_exit of int
  | OS2_r_pid of int
  | OS2_r_ok

let sem = Fileserver.Vfs.os2_semantics

(* every doscall fetches stub code in the shared doscalls library *)
let charge_doscall t ?(bytes = 192) () =
  Mach.Ktext.exec_in t.kernel.Mach.Kernel.ktext t.doscalls ~offset:0x200 ~bytes

let handle t msg =
  match msg.msg_payload with
  | OS2_exec name ->
      (* the server side of process creation: build the task and its
         shared-library mappings *)
      let sys = t.kernel.Mach.Kernel.sys in
      let task =
        Mach.Kernel.task_create t.kernel ~name ~personality:"os2" ()
      in
      Mk_services.Runtime.attach t.runtime task;
      task.libraries <- ("doscalls", t.doscalls) :: task.libraries;
      let pid = t.next_pid in
      t.next_pid <- t.next_pid + 1;
      let p =
        { p_pid = pid; p_task = task; p_mem = Os2_memory.create t.kernel task;
          p_alive = true }
      in
      t.processes <- p :: t.processes;
      ignore sys;
      simple_message ~inline_bytes:8 ~payload:(OS2_r_pid pid) ()
  | OS2_exit pid ->
      (match List.find_opt (fun p -> p.p_pid = pid) t.processes with
      | Some p ->
          p.p_alive <- false;
          t.processes <- List.filter (fun q -> q.p_pid <> pid) t.processes;
          Mach.Sched.task_halt t.kernel.Mach.Kernel.sys p.p_task
      | None -> ());
      simple_message ~payload:OS2_r_ok ()
  | _ -> simple_message ~payload:(P_error Kern_invalid_argument) ()

let start (kernel : Mach.Kernel.t) runtime fs ?name_service () =
  let sys = kernel.Mach.Kernel.sys in
  Mach.Sched.with_uncharged sys (fun () ->
      let os2_task =
        Mach.Kernel.task_create kernel ~name:"os2-server" ~personality:"os2"
          ~text_bytes:(48 * 1024) ()
      in
      Mk_services.Runtime.attach runtime os2_task;
      let os2_port = Mach.Port.allocate sys ~receiver:os2_task ~name:"os2" in
      let layout = kernel.Mach.Kernel.machine.Machine.layout in
      let doscalls =
        match Machine.Layout.find layout "lib:doscalls" with
        | Some r -> r
        | None ->
            Machine.Layout.alloc layout ~name:"lib:doscalls"
              ~kind:Machine.Layout.Code ~size:(24 * 1024)
      in
      let t =
        {
          kernel;
          runtime;
          fs;
          os2_task;
          os2_port;
          doscalls;
          processes = [];
          next_pid = 1;
        }
      in
      ignore
        (Mach.Kernel.thread_spawn kernel os2_task ~name:"os2-serve" (fun () ->
             Mach.Rpc.serve sys os2_port (handle t))
          : thread);
      (match name_service with
      | Some ns ->
          Mk_services.Name_db.rebind (Mk_services.Name_service.db ns)
            ~path:"/servers/os2"
            ~attributes:[ ("personality", "os2") ]
            ~port:os2_port ()
      | None -> ());
      t)

let server_task t = t.os2_task
let server_port t = t.os2_port
let process_count t = List.length t.processes
let process_task p = p.p_task

(* find the process record for a freshly created pid *)
let find_pid t pid = List.find (fun p -> p.p_pid = pid) t.processes

let create_process t ~name ~entry =
  let sys = t.kernel.Mach.Kernel.sys in
  let make () =
    match
      Mach.Rpc.call sys t.os2_port
        (simple_message
           ~inline_bytes:(32 + String.length name)
           ~payload:(OS2_exec name) ())
    with
    | Ok { msg_payload = OS2_r_pid pid; _ } -> find_pid t pid
    | Ok _ | Error _ -> failwith "OS2 create_process failed"
  in
  let p =
    match sys.Mach.Sched.current with
    | Some _ -> make ()
    | None ->
        (* boot context: run the exchange from a bootstrap thread *)
        let result = ref None in
        let boot = Mach.Kernel.task_create t.kernel ~name:"os2-boot" () in
        ignore
          (Mach.Kernel.thread_spawn t.kernel boot ~name:"boot" (fun () ->
               result := Some (make ()))
            : thread);
        let ok = Mach.Sched.run_until sys (fun () -> !result <> None) in
        (match (ok, !result) with
        | _, Some p -> p
        | _, None -> failwith "OS2 create_process: boot exchange stuck")
  in
  ignore
    (Mach.Kernel.thread_spawn t.kernel p.p_task ~name:(name ^ ".main")
       (fun () -> entry p)
      : thread);
  p

let dos_open t p ~path ?(create = false) () =
  ignore p;
  charge_doscall t ();
  Fileserver.File_server.Client.open_ t.fs sem ~path ~create ()

let dos_read t p h ~bytes =
  ignore p;
  charge_doscall t ();
  Fileserver.File_server.Client.read t.fs h ~bytes

let dos_write t p h data =
  ignore p;
  charge_doscall t ();
  Fileserver.File_server.Client.write t.fs h data

let dos_close t p h =
  ignore p;
  charge_doscall t ();
  Fileserver.File_server.Client.close t.fs h

let dos_delete t p ~path =
  ignore p;
  charge_doscall t ();
  Fileserver.File_server.Client.unlink t.fs sem ~path

let dos_alloc_mem t p ~bytes =
  charge_doscall t ~bytes:96 ();
  Os2_memory.dos_alloc_mem p.p_mem ~bytes

let dos_exit t p =
  charge_doscall t ~bytes:96 ();
  match
    Mach.Rpc.call t.kernel.Mach.Kernel.sys t.os2_port
      (simple_message ~inline_bytes:8 ~payload:(OS2_exit p.p_pid) ())
  with
  | Ok { msg_payload = OS2_r_ok; _ } -> ()
  | Ok { msg_payload = P_error _; _ } ->
      (* exit is best-effort: the server may already have torn us down *)
      ()
  | Ok _ | Error _ -> ()
