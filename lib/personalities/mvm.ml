open Mach.Ktypes

type guest_op =
  | G_compute of int
  | G_io_port of int
  | G_int21_read of int
  | G_int21_write of int
  | G_dpmi_switch

type vdm = {
  v_task : task;
  v_code : Machine.Layout.region;  (* guest code image *)
  v_tcache : (int, unit) Hashtbl.t;  (* translated block cache, by pc *)
  v_trans : Machine.Layout.region option;  (* translated-code arena *)
  mutable v_pc : int;
  mutable v_instrs : int;
  mutable v_translated : int;
  mutable v_hits : int;
}

type t = {
  kernel : Mach.Kernel.t;
  runtime : Mk_services.Runtime.t;
  fs : Fileserver.File_server.t option;
  mvm_task : task;
  vdm_lib : Machine.Layout.region;  (* trap-handling shared libraries *)
  translator : Machine.Layout.region option;
  mutable reflected : int;
}

let block_instrs = 64
let guest_bytes_per_instr = 3  (* x86 average *)
let native_bytes_per_instr = 4

let start (kernel : Mach.Kernel.t) runtime ?file_server ~translate () =
  let sys = kernel.Mach.Kernel.sys in
  Mach.Sched.with_uncharged sys (fun () ->
      let mvm_task =
        Mach.Kernel.task_create kernel ~name:"mvm-server" ~personality:"mvm"
          ~text_bytes:(24 * 1024) ()
      in
      Mk_services.Runtime.attach runtime mvm_task;
      let layout = kernel.Mach.Kernel.machine.Machine.layout in
      let vdm_lib =
        match Machine.Layout.find layout "lib:vdm" with
        | Some r -> r
        | None ->
            Machine.Layout.alloc layout ~name:"lib:vdm"
              ~kind:Machine.Layout.Code ~size:(24 * 1024)
      in
      let translator =
        if translate then
          Some
            (match Machine.Layout.find layout "mvm.translator" with
            | Some r -> r
            | None ->
                Machine.Layout.alloc layout ~name:"mvm.translator"
                  ~kind:Machine.Layout.Code ~size:(32 * 1024))
        else None
      in
      {
        kernel;
        runtime;
        fs = file_server;
        mvm_task;
        vdm_lib;
        translator;
        reflected = 0;
      })

let create_vdm t ~name =
  let sys = t.kernel.Mach.Kernel.sys in
  Mach.Sched.with_uncharged sys (fun () ->
      let v_task =
        Mach.Kernel.task_create t.kernel ~name ~personality:"mvm" ()
      in
      v_task.libraries <- ("vdm", t.vdm_lib) :: v_task.libraries;
      let layout = t.kernel.Mach.Kernel.machine.Machine.layout in
      let v_code =
        Machine.Layout.alloc layout ~name:(name ^ ".guest")
          ~kind:Machine.Layout.Code ~size:(16 * 1024)
      in
      let v_trans =
        Option.map
          (fun (_ : Machine.Layout.region) ->
            Machine.Layout.alloc layout ~name:(name ^ ".translated")
              ~kind:Machine.Layout.Code ~size:(32 * 1024))
          t.translator
      in
      let v =
        {
          v_task;
          v_code;
          v_tcache = Hashtbl.create 64;
          v_trans;
          v_pc = 0;
          v_instrs = 0;
          v_translated = 0;
          v_hits = 0;
        }
      in
      v)

let machine t = t.kernel.Mach.Kernel.machine

(* execute [n] guest instructions starting at the VDM's pc *)
let compute t v n =
  v.v_instrs <- v.v_instrs + n;
  let rec blocks remaining =
    if remaining > 0 then begin
      let this = min block_instrs remaining in
      let pc = v.v_pc in
      v.v_pc <- (v.v_pc + this) mod 4096;  (* guest working set wraps *)
      (match (t.translator, v.v_trans) with
      | Some translator, Some trans ->
          if Hashtbl.mem v.v_tcache pc then v.v_hits <- v.v_hits + 1
          else begin
            (* translate the block: walk the translator over the guest
               bytes and emit native code *)
            Hashtbl.replace v.v_tcache pc ();
            v.v_translated <- v.v_translated + 1;
            let cpu = (machine t).Machine.cpu in
            Machine.Cpu.fetch cpu translator ~offset:0x100 ~bytes:(this * 20);
            Machine.Cpu.load cpu
              ~addr:(v.v_code.Machine.Layout.base
                     + (pc * guest_bytes_per_instr mod 8192))
              ~bytes:(this * guest_bytes_per_instr);
            Machine.Cpu.store cpu
              ~addr:(trans.Machine.Layout.base
                     + (pc * native_bytes_per_instr mod 16384))
              ~bytes:(this * native_bytes_per_instr)
          end;
          (* run the translated code: ~1.3 native instructions per guest
             instruction *)
          Machine.Cpu.fetch (machine t).Machine.cpu trans
            ~offset:(pc * native_bytes_per_instr mod 16384)
            ~bytes:(this * native_bytes_per_instr * 13 / 10)
      | _ ->
          (* native x86: fetch the guest bytes directly *)
          Machine.Cpu.fetch (machine t).Machine.cpu v.v_code
            ~offset:(pc * guest_bytes_per_instr mod 8192)
            ~bytes:(this * guest_bytes_per_instr));
      blocks (remaining - this)
    end
  in
  blocks n

(* a trapped guest operation: kernel entry, reflection to the in-task
   shared library, the library's handler *)
let reflect t ?(handler_bytes = 256) () =
  t.reflected <- t.reflected + 1;
  let sys = t.kernel.Mach.Kernel.sys in
  let k = sys.Mach.Sched.ktext in
  Mach.Ktext.exec k
    [ Mach.Ktext.trap_entry; Mach.Ktext.irq_reflect; Mach.Ktext.trap_exit ];
  Mach.Ktext.exec_in k t.vdm_lib ~offset:0x400 ~bytes:handler_bytes

let vdm_file t v rw bytes =
  ignore v;
  reflect t ~handler_bytes:384 ();
  match t.fs with
  | None -> ()
  | Some fs -> (
      let sem = Fileserver.Vfs.os2_semantics in
      (* the virtual device driver keeps one scratch file per VDM *)
      let path = Printf.sprintf "/c/VDM.SWP" in
      match Fileserver.File_server.Client.open_ fs sem ~path ~create:true () with
      | Error _ -> ()
      | Ok h ->
          (match rw with
          | `Read ->
              ignore (Fileserver.File_server.Client.read fs h ~bytes)
          | `Write ->
              ignore
                (Fileserver.File_server.Client.write fs h
                   (Bytes.make (min bytes 4096) 'v')));
          Fileserver.File_server.Client.close fs h)

let run_op t v = function
  | G_compute n -> compute t v n
  | G_io_port _port ->
      reflect t ();
      (* virtual device driver touches the real aperture *)
      let m = machine t in
      Machine.Framebuffer.fill_rect m.Machine.framebuffer m.Machine.cpu ~x:0
        ~y:0 ~w:16 ~h:1 ~pixel:'m'
  | G_int21_read n -> vdm_file t v `Read n
  | G_int21_write n -> vdm_file t v `Write n
  | G_dpmi_switch ->
      reflect t ~handler_bytes:512 ();
      Machine.Cpu.stall (machine t).Machine.cpu 200

let run_program t v ops =
  (* programs start at the image base; re-running one reuses the
     translation cache *)
  v.v_pc <- 0;
  List.iter (run_op t v) ops

let spawn_program t v ~name ops =
  ignore
    (Mach.Kernel.thread_spawn t.kernel v.v_task ~name (fun () ->
         run_program t v ops)
      : thread)

let guest_instructions v = v.v_instrs
let blocks_translated v = v.v_translated
let translation_hits v = v.v_hits
let traps_reflected t = t.reflected
