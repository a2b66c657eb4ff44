(** Simulated hardware substrate.

    This library stands in for the 133 MHz Pentium / PowerPC 604 testbeds
    of the paper: one or more processors with a microarchitectural cost
    model (instruction retirement, set-associative I/D caches, TLB,
    write-through stores, bus-transaction accounting, Pentium-style
    performance counters), a shared memory bus with a write-invalidate
    coherence directory, a physical address-space layout, a discrete-event
    queue, an interrupt controller and standard devices.  Everything above
    — the microkernel, the servers, the monolithic comparator — executes
    by charging its fetches, loads, stores and stalls to the active CPU
    through {!Cpu}'s charge calls.

    With [Config.ncpus = 1] (the default) the machine is byte-identical
    to the pre-SMP uniprocessor model: the bus never arbitrates, the
    coherence directory stays empty, and no IPIs exist. *)

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

(** The assembled machine: processors over one shared bus, layout, event
    queue, interrupt controller, one disk and one frame buffer.

    [cpu] is the {e active} CPU — the one whose context is currently
    executing; the scheduler repoints it at each dispatch.  Code that
    charges costs through [machine.cpu] therefore bills the processor
    that is actually running.  The interrupt controller and the disk are
    wired to [cpus.(0)] (the boot CPU) and deliver their completions on
    its timeline; frame buffer stores bill the CPU that draws. *)
type t = {
  config : Config.t;
  mutable cpu : Cpu.t;
  cpus : Cpu.t array;
  bus : Bus.t;
  mutable active : int;
  layout : Layout.t;
  events : Event_queue.t;
  irq : Irq.t;
  disk : Disk.t;
  framebuffer : Framebuffer.t;
}

val disk_irq_line : int

val create : Config.t -> t

val ncpus : t -> int
val nth_cpu : t -> int -> Cpu.t

val set_active : t -> int -> unit
(** Make CPU [i] the active one: subsequent charges through [t.cpu] land
    on its clock and counters. *)

val active : t -> int

val now : t -> int
(** Current cycle time of the {e active} CPU. *)

val global_now : t -> int
(** Wall-clock of the whole machine: the furthest-ahead CPU's clock.
    Equal to {!now} on a uniprocessor. *)

val ipi : t -> target:int -> unit
(** Raise an inter-processor interrupt from the active CPU to [target]:
    a fixed [Config.ipi_cycles] send cost on the sender, an interrupt
    counted on the target.  Delivery semantics (message-queue drain)
    belong to the scheduler layer. *)

val advance_to_next_event : t -> bool
(** When every CPU is idle, jump the boot CPU's clock to the earliest
    pending event and fire everything due at the boot CPU's clock.
    Sets the active CPU to 0, so handlers run as the boot CPU: disk
    completions and timers are delivered there.  A handler that steers
    its work elsewhere (a sharded netserver's receive interrupt) does so
    through {!interrupt_on}.  [false] when no event is pending (a
    deadlocked or finished system). *)

val interrupt_on : t -> int -> at:int -> (unit -> unit) -> unit
(** [interrupt_on t i ~at handler] runs [handler] as CPU [i], as an
    interrupt steered to that CPU at cycle [at] (RSS with a per-queue
    MSI-X vector): CPU [i] becomes active, idles uncharged up to [at]
    when its clock is behind it, runs [handler], and the CPU active
    before is active again afterwards.  The scheduler keeps its own
    active CPU; [Mach.Sched.interrupt_on] sets both. *)

val pp_inventory : Format.formatter -> t -> unit
(** Print the physical layout — the machine-level part of Figure 1. *)
