(** Hosts and processor sets (inherited from Mach 3.0).

    Host info, the default processor set, set creation and task
    assignment are kept so that the system inventory and the
    scheduler-facing API match the paper's component list.  Each booted
    system has its own default set. *)

open Ktypes

type processor_set

type host_info = {
  host_name : string;
  processors : int;
  memory_bytes : int;
  cpu_mhz : int;
}

val host_info : Sched.t -> host_info

val default_pset : Sched.t -> processor_set
val pset_create : Sched.t -> name:string -> processor_set
val pset_name : processor_set -> string
val assign_task : Sched.t -> processor_set -> task -> unit
val pset_tasks : processor_set -> task list
