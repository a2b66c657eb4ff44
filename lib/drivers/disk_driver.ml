open Mach.Ktypes

type arch = User_level | Kernel_bsd | Ooddm

type payload +=
  | DD_read of { block : int; count : int }
  | DD_write of { block : int; data : bytes }
  | DD_r_data of bytes
  | DD_r_done

type t = {
  kernel : Mach.Kernel.t;
  a : arch;
  disk : Machine.Disk.t;
  mutable reqs : int;
  mutable intrs : int;
  (* user-level architecture *)
  u_task : task option;
  mutable u_port : port option;
  (* OODDM architecture *)
  oo_runtime : Finegrain.t option;
  oo_driver : Finegrain.obj option;
}

let block_size t = (Machine.Disk.geometry t.disk).Machine.Disk.block_size

let sys t = t.kernel.Mach.Kernel.sys

(* block the calling thread until the disk completion runs *)
let await_disk t submit =
  let s = sys t in
  Mach.Sched.await s "disk-driver" (fun k ->
      submit (fun data ->
          t.intrs <- t.intrs + 1;
          (* the completion runs in interrupt context; charge by model *)
          (match t.a with
          | Kernel_bsd ->
              Mach.Ktext.exec s.Mach.Sched.ktext [ Mach.Ktext.irq_entry ]
          | User_level ->
              Mach.Ktext.exec s.Mach.Sched.ktext
                [ Mach.Ktext.irq_entry; Mach.Ktext.irq_reflect ]
          | Ooddm -> (
              Mach.Ktext.exec s.Mach.Sched.ktext [ Mach.Ktext.irq_entry ];
              match (t.oo_runtime, t.oo_driver) with
              | Some rt, Some d -> Finegrain.invoke rt d ~work_units:10
              | _ -> ()));
          k data))

let kernel_entry t =
  let s = sys t in
  let th = Mach.Sched.self () in
  Mach.Ktext.exec_in s.Mach.Sched.ktext th.t_task.text ~offset:0x100 ~bytes:128;
  Mach.Ktext.exec s.Mach.Sched.ktext ~frame:th.stack_base
    [ Mach.Ktext.trap_entry; Mach.Ktext.syscall_dispatch ]

let kernel_exit t =
  let s = sys t in
  let th = Mach.Sched.self () in
  Mach.Ktext.exec s.Mach.Sched.ktext ~frame:th.stack_base
    [ Mach.Ktext.trap_exit ]

let dma_setup t =
  Mach.Ktext.exec (sys t).Mach.Sched.ktext [ Mach.Ktext.dma_setup ]

(* the driver body shared by every architecture *)
let do_read t ~block ~count =
  t.reqs <- t.reqs + 1;
  dma_setup t;
  await_disk t (fun k -> Machine.Disk.read t.disk ~block ~count k)

let do_write t ~block data =
  t.reqs <- t.reqs + 1;
  dma_setup t;
  await_disk t (fun k ->
      Machine.Disk.write t.disk ~block [ data ] (fun () -> k Bytes.empty))
  |> fun (_ : bytes) -> ()

let user_serve t port =
  let s = sys t in
  Mach.Rpc.serve s port (fun req ->
      match req.msg_payload with
      | DD_read { block; count } ->
          let data = do_read t ~block ~count in
          simple_message ~inline_bytes:(Bytes.length data)
            ~payload:(DD_r_data data) ()
      | DD_write { block; data } ->
          do_write t ~block data;
          simple_message ~payload:DD_r_done ()
      | _ -> simple_message ~payload:(P_error Kern_invalid_argument) ())

let start (kernel : Mach.Kernel.t) rm ~arch =
  let driver_name =
    match arch with
    | User_level -> "disk.user"
    | Kernel_bsd -> "disk.bsd"
    | Ooddm -> "disk.ooddm"
  in
  let claim r =
    Result.map ignore (Resource_manager.request rm ~driver:driver_name r ())
  in
  match
    (claim (Resource_manager.Irq_line Machine.disk_irq_line),
     claim (Resource_manager.Dma_channel 2))
  with
  | Error e, _ | _, Error e -> Error e
  | Ok (), Ok () ->
      let disk = kernel.Mach.Kernel.machine.Machine.disk in
      let base =
        {
          kernel;
          a = arch;
          disk;
          reqs = 0;
          intrs = 0;
          u_task = None;
          u_port = None;
          oo_runtime = None;
          oo_driver = None;
        }
      in
      (match arch with
      | Kernel_bsd -> Ok base
      | Ooddm ->
          let rt =
            Finegrain.create kernel ~style:Finegrain.Fine_grained
              ~name:"ooddm"
          in
          let io_dev = Finegrain.define_class rt ~name:"TIODevice" () in
          let blockdev =
            Finegrain.define_class rt ~name:"TBlockDevice" ~super:io_dev ()
          in
          let diskk =
            Finegrain.define_class rt ~name:"TDiskDriver" ~super:blockdev ()
          in
          Ok
            {
              base with
              oo_runtime = Some rt;
              oo_driver = Some (Finegrain.new_object rt diskk);
            }
      | User_level ->
          let s = kernel.Mach.Kernel.sys in
          Mach.Sched.with_uncharged s (fun () ->
              let u_task =
                Mach.Kernel.task_create kernel ~name:"disk-driver"
                  ~personality:"pn" ()
              in
              let u_port =
                Mach.Port.allocate s ~receiver:u_task ~name:"disk-driver"
              in
              let t =
                { base with u_task = Some u_task; u_port = Some u_port }
              in
              ignore
                (Mach.Kernel.thread_spawn kernel u_task ~name:"dd-serve"
                   (fun () -> user_serve t u_port)
                  : thread);
              Ok t))

let arch t = t.a

let read_blocks t ~block ~count =
  match t.a with
  | Kernel_bsd ->
      kernel_entry t;
      let data = do_read t ~block ~count in
      kernel_exit t;
      data
  | Ooddm ->
      kernel_entry t;
      (match (t.oo_runtime, t.oo_driver) with
      | Some rt, Some d -> Finegrain.invoke rt d ~work_units:20
      | _ -> ());
      let data = do_read t ~block ~count in
      kernel_exit t;
      data
  | User_level -> (
      let s = sys t in
      match t.u_port with
      | None -> assert false
      | Some port -> (
          match
            Mach.Rpc.call s port
              (simple_message ~inline_bytes:32
                 ~payload:(DD_read { block; count })
                 ())
          with
          | Ok { msg_payload = DD_r_data data; _ } -> data
          | Ok { msg_payload = P_error _; _ } ->
              (* driver refused the request: surface as an empty read,
                 the same contract a short read gives the block layer *)
              Bytes.empty
          | Ok _ | Error _ -> Bytes.empty))

let write_blocks t ~block data =
  match t.a with
  | Kernel_bsd ->
      kernel_entry t;
      do_write t ~block data;
      kernel_exit t
  | Ooddm ->
      kernel_entry t;
      (match (t.oo_runtime, t.oo_driver) with
      | Some rt, Some d -> Finegrain.invoke rt d ~work_units:20
      | _ -> ());
      do_write t ~block data;
      kernel_exit t
  | User_level -> (
      let s = sys t in
      match t.u_port with
      | None -> assert false
      | Some port -> (
          match
            Mach.Rpc.call s port
              (simple_message
                 ~inline_bytes:(Bytes.length data + 32)
                 ~payload:(DD_write { block; data })
                 ())
          with
          | Ok { msg_payload = DD_r_done; _ } -> ()
          | Ok { msg_payload = P_error _; _ } ->
              (* lost ack: write-behind semantics, nothing to retry here *)
              ()
          | Ok _ | Error _ -> ()))

let requests t = t.reqs
let interrupts_taken t = t.intrs
let driver_task t = t.u_task
let port t = t.u_port

(* --- storage fault injection -------------------------------------------- *)

(* Route every media write of [disk] through the kernel's fault plan.
   The interceptor reads [sys.faults] at each write, so plans can be
   installed, swapped, or cleared without re-arming; with no plan (or
   Machcheck-style off mode) the write passes untouched.  Reorder holds
   are bounded to a small window — barriers flush them regardless. *)
let arm_faults (kernel : Mach.Kernel.t) disk =
  let sys = kernel.Mach.Kernel.sys in
  let dname = Machine.Disk.name disk in
  Machine.Disk.set_write_interceptor disk
    (Some
       (fun ~block:_ ~data:_ ->
         match sys.Mach.Sched.faults with
         | None -> Machine.Disk.Wf_pass
         | Some plan -> (
             match Mach.Fault.on_disk_write plan ~disk:dname with
             | Mach.Fault.D_pass -> Machine.Disk.Wf_pass
             | Mach.Fault.D_power_cut -> Machine.Disk.Wf_power_cut
             | Mach.Fault.D_torn r -> Machine.Disk.Wf_torn r
             | Mach.Fault.D_bit_rot r -> Machine.Disk.Wf_bit_rot r
             | Mach.Fault.D_reorder r ->
                 Machine.Disk.Wf_reorder (1 + (r mod 4)))))

let disarm_faults disk = Machine.Disk.set_write_interceptor disk None

let _ = block_size
