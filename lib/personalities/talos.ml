open Mach.Ktypes

exception Not_finished of string

type application = {
  a_task : task;
  a_file_obj : Finegrain.obj;  (* the TFile framework instance *)
}

type t = {
  kernel : Mach.Kernel.t;
  fs : Fileserver.File_server.t;
  talos_task : task;
  frameworks : Finegrain.t;
  file_class : Finegrain.klass;
  wrapper_class : Finegrain.klass;
  mutable wrappers : Finegrain.obj list;  (* stateful kernel wrappers *)
}

let sem = Fileserver.Vfs.talos_semantics

let start (kernel : Mach.Kernel.t) runtime fs () =
  let sys = kernel.Mach.Kernel.sys in
  Mach.Sched.with_uncharged sys (fun () ->
      let talos_task =
        Mach.Kernel.task_create kernel ~name:"talos-server"
          ~personality:"talos" ~text_bytes:(32 * 1024) ()
      in
      Mk_services.Runtime.attach runtime talos_task;
      let frameworks =
        Finegrain.create kernel ~style:Finegrain.Fine_grained ~name:"talos"
      in
      (* the CommonPoint hierarchy, deep for reuse *)
      let tobject = Finegrain.define_class frameworks ~name:"TObject" () in
      let tstream =
        Finegrain.define_class frameworks ~name:"TStream" ~super:tobject ()
      in
      let tfile =
        Finegrain.define_class frameworks ~name:"TFileStream" ~super:tstream ()
      in
      let twrapper =
        Finegrain.define_class frameworks ~name:"TKernelWrapper"
          ~super:tobject ()
      in
      {
        kernel;
        fs;
        talos_task;
        frameworks;
        file_class = tfile;
        wrapper_class = twrapper;
        wrappers = [];
      })

let server_task t = t.talos_task
let frameworks t = t.frameworks

(* every kernel interaction from TalOS code goes through a stateful C++
   wrapper object; one accumulates per interface used *)
let via_wrapper t =
  let w = Finegrain.new_object t.frameworks t.wrapper_class in
  t.wrappers <- w :: t.wrappers;
  Finegrain.invoke t.frameworks w ~work_units:4

let wrapper_state_bytes t = 96 * List.length t.wrappers

let launch t ~name entry =
  let a_task =
    Mach.Kernel.task_create t.kernel ~name ~personality:"talos" ()
  in
  let app =
    { a_task; a_file_obj = Finegrain.new_object t.frameworks t.file_class }
  in
  ignore
    (Mach.Kernel.thread_spawn t.kernel a_task ~name:(name ^ ".main")
       (fun () -> entry app)
      : thread);
  app

let file_write t app ~path data =
  Finegrain.invoke t.frameworks app.a_file_obj ~work_units:6;
  via_wrapper t;
  match
    Fileserver.File_server.Client.open_ t.fs sem ~path ~create:true ()
  with
  | Error e -> Error e
  | Ok h ->
      let r = Fileserver.File_server.Client.write t.fs h data in
      Fileserver.File_server.Client.close t.fs h;
      r

let file_read t app ~path ~bytes =
  Finegrain.invoke t.frameworks app.a_file_obj ~work_units:6;
  via_wrapper t;
  match Fileserver.File_server.Client.open_ t.fs sem ~path () with
  | Error e -> Error e
  | Ok h ->
      let r = Fileserver.File_server.Client.read t.fs h ~bytes in
      Fileserver.File_server.Client.close t.fs h;
      r

let compound_document _ =
  raise (Not_finished "TalOS compound documents were never finished")

let user_interface _ =
  raise (Not_finished "the TalOS user interface was never finished")
