(** Workload generators for every experiment, and {!Experiment}, the
    table the bench driver runs them from. *)

module Api = Api
module Table1 = Table1
module Micro = Micro
module Ipc_stress = Ipc_stress
module Recovery_sweep = Recovery_sweep
module Smp_scaling = Smp_scaling
module Vfs_walk = Vfs_walk
module Net_storm = Net_storm
module Fault_storm = Fault_storm
module Bench_ab = Bench_ab
module Experiment = Experiment
