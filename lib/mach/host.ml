open Ktypes

type processor_set = Ktypes.processor_set

type host_info = {
  host_name : string;
  processors : int;
  memory_bytes : int;
  cpu_mhz : int;
}

let host_info (sys : Sched.t) =
  let c = sys.machine.Machine.config in
  {
    host_name = c.Machine.Config.name;
    processors = Machine.ncpus sys.machine;
    memory_bytes = c.Machine.Config.memory_bytes;
    cpu_mhz = c.Machine.Config.cpu_mhz;
  }

let default_pset (sys : Sched.t) = sys.default_pset

let pset_create (sys : Sched.t) ~name =
  Ktext.exec sys.ktext [ Ktext.sync_fast ];
  { ps_name = name; ps_tasks = [] }

let pset_name ps = ps.ps_name

let assign_task (sys : Sched.t) ps task =
  Ktext.exec sys.ktext [ Ktext.sync_fast ];
  if not (List.memq task ps.ps_tasks) then ps.ps_tasks <- task :: ps.ps_tasks

let pset_tasks ps = ps.ps_tasks
