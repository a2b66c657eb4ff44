(** The OS-facing surface the Table 1 workloads run against.

    Both systems — the WPOS multi-server assembly (through the OS/2
    personality: doscalls → file server RPC, PM message queues, the
    byte-granularity memory manager) and the monolithic comparator
    (traps into in-kernel services) — implement this one record, so a
    workload is written once and measured on both. *)

type handle = {
  read : bytes:int -> int;  (** Bytes read; 0 on error. *)
  write : bytes:int -> int;  (** Bytes written; 0 on error. *)
  seek : pos:int -> unit;
  close : unit -> unit;
}
(** An open file: each operation runs as the calling thread's process. *)

type queue = { post : int -> unit; wait : unit -> int }
(** A PM-style message queue (window queue on WPOS, an equivalent
    semaphore-backed queue on the monolithic system). *)

type t = {
  api_name : string;
  machine : Machine.t;
  spawn : name:string -> (t -> unit) -> unit;
      (** Start an application process running the body. *)
  go : unit -> unit;  (** Drive the system until everything finishes. *)
  root : string;  (** Directory prefix for workload files. *)
  f_open : path:string -> create:bool -> (handle, string) result;
  f_unlink : path:string -> unit;
  alloc : bytes:int -> int;
  touch : addr:int -> write:bool -> bytes:int -> unit;
  compute : units:int -> unit;
      (** User-level computation in the application's own text. *)
  draw : x:int -> y:int -> w:int -> h:int -> unit;
      (** Direct-to-framebuffer drawing from user level. *)
  make_queue : name:string -> queue;
  yield : unit -> unit;
}

val of_wpos : Wpos.t -> t
val of_monolithic : Monolithic.t -> t

val elapsed : t -> (unit -> unit) -> int
(** Cycles consumed by running the action (usually [spawn]s + [go]). *)
