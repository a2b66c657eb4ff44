module Config = Config
module Perf = Perf
module Cache = Cache
module Tlb = Tlb
module Layout = Layout
module Bus = Bus
module Cpu = Cpu
module Event_queue = Event_queue
module Irq = Irq
module Disk = Disk
module Framebuffer = Framebuffer

type t = {
  config : Config.t;
  mutable cpu : Cpu.t;  (* the CPU whose context is currently executing *)
  cpus : Cpu.t array;
  bus : Bus.t;
  mutable active : int;  (* index of [cpu] within [cpus] *)
  layout : Layout.t;
  events : Event_queue.t;
  irq : Irq.t;
  disk : Disk.t;
  framebuffer : Framebuffer.t;
}

let disk_irq_line = 14

let create config =
  let bus = Bus.create ~ncpus:config.Config.ncpus in
  let cpus =
    Array.init config.Config.ncpus (fun id -> Cpu.create ~id ~bus config)
  in
  let cpu = cpus.(0) in
  let layout = Layout.create config in
  let events = Event_queue.create () in
  (* devices — interrupt controller, disk — live on the boot CPU: device
     completions are delivered there and cross to other CPUs only through
     scheduler messages.  The frame buffer is plain memory: each store
     bills the CPU that executes it. *)
  let irq = Irq.create cpu ~lines:16 in
  let disk =
    Disk.create cpu events irq ~line:disk_irq_line ~name:"hd0"
      Disk.default_geometry
  in
  let framebuffer = Framebuffer.create layout ~width:640 ~height:480 in
  { config; cpu; cpus; bus; active = 0; layout; events; irq; disk; framebuffer }

let ncpus t = Array.length t.cpus
let nth_cpu t i = t.cpus.(i)

let set_active t i =
  if i <> t.active then begin
    t.active <- i;
    t.cpu <- t.cpus.(i)
  end

let active t = t.active

let now t = Cpu.now t.cpu

(* Wall-clock of the whole machine: the furthest-ahead CPU.  Equal to
   [now] on a uniprocessor. *)
let global_now t =
  let m = ref 0. in
  Array.iter
    (fun c ->
      let x = Cpu.now_exact c in
      if x > !m then m := x)
    t.cpus;
  int_of_float (Float.round !m)

(* Raise an inter-processor interrupt from the active CPU to [target]:
   a fixed send cost on the sender, an interrupt taken on the target.
   The scheduler layer owns delivery semantics (message-queue drain);
   this is only the hardware cost and counters. *)
let ipi t ~target =
  let sender = t.cpu in
  Perf.ipi_sent (Cpu.perf sender);
  Cpu.stall sender t.config.Config.ipi_cycles;
  let dst = t.cpus.(target) in
  Perf.ipi_received (Cpu.perf dst);
  Perf.interrupt (Cpu.perf dst)

(* Device events fire on the boot CPU's timeline: idle time is skipped
   there, and any cross-CPU wakeups the handlers make travel as
   scheduler messages stamped with the boot CPU's clock.  A handler may
   steer its own work to another CPU through [interrupt_on]. *)
let advance_to_next_event t =
  match Event_queue.next_time t.events with
  | None -> false
  | Some time ->
      set_active t 0;
      Cpu.advance_to t.cpu time;
      let (_ : int) = Event_queue.run_due t.events ~now:(Cpu.now t.cpu) in
      true

(* An interrupt steered to CPU [i] at cycle [at], as RSS does with one
   MSI-X vector per receive queue: [handler] runs with [i] active, after
   the CPU idles (uncharged) up to [at] if it is behind, and the CPU
   that was active before is active again afterwards. *)
let interrupt_on t i ~at handler =
  let saved = t.active in
  set_active t i;
  Cpu.advance_to t.cpu at;
  handler ();
  set_active t saved

let pp_inventory ppf t =
  Format.fprintf ppf "@[<v>machine: %a@ %a@]" Config.pp t.config
    (Format.pp_print_list Layout.pp_region)
    (Layout.regions t.layout)
