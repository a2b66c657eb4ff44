open Ktypes

type reflection = { mutable waiter : thread option; mutable pending : int }
type t = { sys : Sched.t; tbl : (int, reflection) Hashtbl.t }
type dma_channel = { ch_id : int; mutable ch_busy : bool }

let create sys = { sys; tbl = Hashtbl.create 8 }

let map_device_memory t task region =
  let sys = t.sys in
  ignore
    (Vm.map_object sys task
       (Vm.object_create sys ~tag:("dev:" ^ region.Machine.Layout.name)
          ~bytes:region.Machine.Layout.size ())
       ~at:region.Machine.Layout.base ~bytes:region.Machine.Layout.size
       ~coerced:true ()
      : int)

let device_mapped task region =
  List.exists
    (fun e -> e.ent_start = region.Machine.Layout.base)
    task.vm.entries

let next_interrupt t ~line =
  let th = Sched.self () in
  match Hashtbl.find_opt t.tbl line with
  | None -> Kern_invalid_argument
  | Some r ->
      if r.pending > 0 then begin
        r.pending <- r.pending - 1;
        Kern_success
      end
      else begin
        r.waiter <- Some th;
        Sched.block "user-interrupt"
      end

let attach_user_handler t ~line ~name =
  let sys = t.sys in
  let r = { waiter = None; pending = 0 } in
  Hashtbl.replace t.tbl line r;
  Machine.Irq.register sys.machine.Machine.irq ~line ~name (fun () ->
      Ktext.exec sys.ktext [ Ktext.irq_entry; Ktext.irq_reflect ];
      match r.waiter with
      | Some th ->
          r.waiter <- None;
          Sched.wake sys th
      | None -> r.pending <- r.pending + 1)

let detach t ~line =
  Machine.Irq.unregister t.sys.machine.Machine.irq ~line;
  Hashtbl.remove t.tbl line

let dma_open t ~channel =
  Ktext.exec t.sys.ktext [ Ktext.dma_setup ];
  { ch_id = channel; ch_busy = false }

let dma_transfer t ch ~bytes k =
  let sys = t.sys in
  Ktext.exec sys.ktext [ Ktext.dma_setup ];
  ch.ch_busy <- true;
  (* ~4 bytes per bus cycle, and the bus traffic lands on completion *)
  let cycles = Int.max 1 (bytes / 4) in
  Machine.Event_queue.schedule sys.machine.Machine.events
    ~at:(Machine.now sys.machine + cycles)
    (fun () ->
      Machine.Perf.add_bus_cycles
        (Machine.Cpu.perf sys.machine.Machine.cpu)
        (bytes / 4);
      ch.ch_busy <- false;
      k ())

let pending_reflections t ~line =
  match Hashtbl.find_opt t.tbl line with
  | Some r -> r.pending
  | None -> 0
