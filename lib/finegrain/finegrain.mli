(** Object-runtime simulation: Taligent-style fine-grained C++ objects
    versus MK++-style coarse objects.

    The paper's finding: "fine-grained objects in C++ are not appropriate
    for operating systems" — deep class hierarchies maximizing reuse
    produce a very large number of very short virtual methods, stateful
    wrapper objects, big runtimes in kernel and user space, and I-cache
    unfriendly execution.  This module makes those properties measurable:

    - a {e fine-grained} runtime executes work as many short virtual
      method bodies scattered through a large framework text region, each
      preceded by a vtable load and an indirect-branch stall, walking
      superclass chains;
    - a {e coarse} runtime (the MK++ discipline: restricted virtuals,
      extensive inlining) executes the same work as few long straight-line
      bodies with direct calls.

    Experiment E6 runs the same protocol workload through both. *)

type style = Fine_grained | Coarse

type t
type klass
type obj

val create : Mach.Kernel.t -> style:style -> name:string -> t
val style : t -> style

val define_class :
  t -> name:string -> ?super:klass -> unit -> klass
(** Method bodies are sized by style: short (96 B) for fine-grained,
    long (768 B) for coarse. *)

val class_depth : klass -> int

val new_object : t -> klass -> obj
(** Allocates the object: header + per-object wrapper state (fine-grained
    wrappers are stateful, so they are big). *)

val delete_object : t -> obj -> unit

val vcall : t -> obj -> slot:int -> unit
(** One method invocation.  Fine-grained: vtable load, indirect-branch
    stall, short body at a class/slot-specific text offset, plus a
    super-chain call per inheritance level.  Coarse: direct call into a
    long body. *)

val invoke : t -> obj -> work_units:int -> unit
(** Run [work_units] of framework work against the object: fine-grained
    turns every unit into a {!vcall}; coarse batches units into one call
    per eight, as inlining would. *)

val vcalls : t -> int
val live_objects : t -> int

val memory_footprint_bytes : t -> int
(** Object headers + wrapper state + vtables + the language runtime
    itself (which the paper found "consumed considerable amounts of
    memory"). *)
