(** The assembled IBM Microkernel: boot, component handles, and the
    system run loop. *)

open Ktypes

type t = {
  machine : Machine.t;
  ktext : Ktext.t;
  sys : Sched.t;
  io : Io.t;
}

val boot : Machine.t -> t
(** Lay out kernel text/data, initialize the scheduler, size the page
    pool. *)

val run : t -> unit
(** Run until no thread is runnable and no event is pending. *)

val run_until : t -> (unit -> bool) -> bool

val task_create :
  t -> name:string -> ?personality:string -> ?text_bytes:int ->
  ?data_bytes:int -> unit -> task

val thread_spawn :
  t -> task -> name:string -> ?affinity:int -> ?bound:bool ->
  (unit -> unit) -> thread

val tasks : t -> task list
