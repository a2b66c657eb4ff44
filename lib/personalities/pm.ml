open Mach.Ktypes

type message = { msg_code : int; msg_param : int }

type window = {
  w_id : int;
  w_owner : Os2.process;
  w_x : int;
  w_y : int;
  w_w : int;
  w_h : int;
  w_queue : message Queue.t;
  w_sem : Mach.Sync.semaphore;
  w_shared_slot : int;  (* address of this window's record in the arena *)
}

type t = {
  kernel : Mach.Kernel.t;
  os2 : Os2.t;
  pmlib : Machine.Layout.region;
  shared_arena : int;  (* coerced shared memory for queues and state *)
  mutable window_count : int;
  mutable delivered : int;
}

let arena_bytes = 128 * 1024

let create (kernel : Mach.Kernel.t) os2 =
  let layout = kernel.Mach.Kernel.machine.Machine.layout in
  let pmlib =
    match Machine.Layout.find layout "lib:pmwin" with
    | Some r -> r
    | None ->
        Machine.Layout.alloc layout ~name:"lib:pmwin"
          ~kind:Machine.Layout.Code ~size:(32 * 1024)
  in
  let shared_arena =
    Mach.Vm.allocate_coerced kernel.Mach.Kernel.sys
      [ Os2.server_task os2 ]
      ~bytes:arena_bytes
  in
  { kernel; os2; pmlib; shared_arena; window_count = 0; delivered = 0 }

let charge_pm t ?(bytes = 224) () =
  Mach.Ktext.exec_in t.kernel.Mach.Kernel.ktext t.pmlib ~offset:0x300 ~bytes

(* queue traffic goes through the shared arena *)
let charge_shared t slot ~write =
  let cpu = t.kernel.Mach.Kernel.machine.Machine.cpu in
  if write then Machine.Cpu.store cpu ~addr:slot ~bytes:32
  else Machine.Cpu.load cpu ~addr:slot ~bytes:32

let win_create t owner ~x ~y ~w ~h =
  charge_pm t ~bytes:512 ();
  let sys = t.kernel.Mach.Kernel.sys in
  (* the owner maps the shared arena (same address everywhere) and the
     frame buffer on its first window *)
  let task = Os2.process_task owner in
  (match Mach.Vm.find_entry task.vm t.shared_arena with
  | Some (_ : vm_entry) -> ()
  | None -> (
      match Mach.Vm.find_entry (Os2.server_task t.os2).vm t.shared_arena with
      | Some entry ->
          ignore
            (Mach.Vm.map_object sys task entry.ent_obj ~at:t.shared_arena
               ~bytes:arena_bytes ~coerced:true ()
              : int)
      | None -> ()));
  let fb = t.kernel.Mach.Kernel.machine.Machine.framebuffer in
  let fb_region = Machine.Framebuffer.region fb in
  if not (Mach.Io.device_mapped task fb_region) then
    Mach.Io.map_device_memory t.kernel.Mach.Kernel.io task fb_region;
  t.window_count <- t.window_count + 1;
  let id = t.window_count in
  {
    w_id = id;
    w_owner = owner;
    w_x = x;
    w_y = y;
    w_w = w;
    w_h = h;
    w_queue = Queue.create ();
    w_sem =
      Mach.Sync.semaphore_create sys ~name:(Printf.sprintf "pm-q%d" id)
        ~value:0;
    w_shared_slot = t.shared_arena + (id * 256 mod arena_bytes);
  }

let win_post_msg t w ~code ~param =
  charge_pm t ();
  charge_shared t w.w_shared_slot ~write:true;
  Queue.add { msg_code = code; msg_param = param } w.w_queue;
  t.delivered <- t.delivered + 1;
  Mach.Sync.semaphore_signal t.kernel.Mach.Kernel.sys w.w_sem

let win_get_msg t w =
  charge_pm t ();
  ignore (Mach.Sync.semaphore_wait t.kernel.Mach.Kernel.sys w.w_sem : kern_return);
  charge_shared t w.w_shared_slot ~write:false;
  match Queue.take_opt w.w_queue with
  | Some m -> m
  | None -> { msg_code = 0; msg_param = 0 }  (* spurious wake *)

let clip_dims w =
  (max 1 (min w.w_w (639 - w.w_x)), max 1 (min w.w_h (479 - w.w_y)))

let gpi_fill t w ~pixel =
  let m = t.kernel.Mach.Kernel.machine in
  let cw, ch = clip_dims w in
  (* user-level rasterization loop: library code per scan line *)
  charge_pm t ~bytes:(64 + (ch * 16)) ();
  Machine.Framebuffer.fill_rect m.Machine.framebuffer m.Machine.cpu ~x:w.w_x
    ~y:w.w_y ~w:cw ~h:ch ~pixel

let gpi_bitblt t w ~src_bytes =
  let m = t.kernel.Mach.Kernel.machine in
  let cw, ch = clip_dims w in
  let rows = min ch (max 1 (src_bytes / max 1 cw)) in
  charge_pm t ~bytes:(64 + (rows * 24)) ();
  (* source pixels stream through the cache, then out to the aperture *)
  Machine.Cpu.load m.Machine.cpu ~addr:w.w_shared_slot
    ~bytes:(min src_bytes 4096);
  for row = 0 to rows - 1 do
    Machine.Framebuffer.blit_row m.Machine.framebuffer m.Machine.cpu ~x:w.w_x
      ~y:(w.w_y + row) (String.make cw 'b')
  done

let windows t = t.window_count
let messages_delivered t = t.delivered
