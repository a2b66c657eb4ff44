(** Deterministic, seeded fault-injection plans.

    A plan scripts failures — kill a named port, crash a server at its
    Nth request, drop or delay a message — and/or injects them at random
    parts-per-million rates from a seeded generator.  The plan itself is
    pure decision state: {!Ipc} and {!Rpc} consult it at their hook
    points and apply what it decides, so the same plan driven by the
    same event sequence replays identically (the regression tests and
    the [fault-sweep] benchmark depend on this).

    Install a plan by setting [sys.Sched.faults]; with no plan installed
    the hook points charge nothing and change no behaviour. *)

type action =
  | Kill_port  (** destroy the service port after answering the request *)
  | Crash_server
      (** destroy the service port and abandon the in-flight request
          (the client never gets a reply and must time out) *)
  | Wedge_server of int
      (** live-but-stuck: the server holds this request for the given
          number of cycles before continuing.  The port stays alive, so
          only a watchdog — not a dead-name notification — sees it *)
  | Drop_message  (** lose the message in transit *)
  | Delay_message of int  (** hold the message for this many cycles *)
  | Power_cut  (** disk: freeze the media at this write *)
  | Torn_write  (** disk: only a prefix of this write lands *)
  | Bit_rot  (** disk: flip one bit of this write *)
  | Reorder  (** disk: hold this write past later ones *)

type message_decision = M_pass | M_drop | M_delay of int
type server_decision = S_continue | S_kill | S_crash | S_wedge of int

(** Disk decisions carry raw entropy from the plan's generator; the
    device maps it into range (torn length, bit index, hold window). *)
type disk_decision =
  | D_pass
  | D_power_cut
  | D_torn of int
  | D_bit_rot of int
  | D_reorder of int

type t

val create : ?seed:int -> unit -> t
val seed : t -> int

val at_request : t -> port:string -> n:int -> action -> unit
(** Script a server fault on the [n]th request (1-based) observed on the
    named port.  Only {!Kill_port}, {!Crash_server} and {!Wedge_server}
    are valid here.  @raise Invalid_argument for message actions. *)

val at_send : t -> port:string -> n:int -> action -> unit
(** Script a message fault on the [n]th send (1-based) observed towards
    the named port.  Only {!Drop_message} and {!Delay_message} are valid
    here.  @raise Invalid_argument for server actions. *)

val at_disk_write : t -> disk:string -> n:int -> action -> unit
(** Script a storage fault on the [n]th write (1-based) reaching the
    named disk's media while powered.  Only the disk actions
    ({!Power_cut}, {!Torn_write}, {!Bit_rot}, {!Reorder}) are valid
    here.  @raise Invalid_argument for IPC actions. *)

val set_rates :
  t -> ?port:string -> ?crash_ppm:int -> ?wedge_ppm:int ->
  ?wedge_cycles:int -> ?drop_ppm:int -> ?delay_ppm:int ->
  ?delay_cycles:int -> unit -> unit
(** Random injection rates in parts per million per event, drawn from
    the seeded generator.  [port] restricts the rates to one port name
    (scripted rules always name their own port). *)

val set_disk_rates :
  t -> ?disk:string -> ?power_cut_ppm:int -> ?torn_ppm:int ->
  ?bit_rot_ppm:int -> ?reorder_ppm:int -> unit -> unit
(** Random storage-fault rates per media write, drawn from the same
    seeded generator.  [disk] restricts the rates to one device name. *)

val on_send : t -> port:string -> message_decision
(** Hook point: a message is about to be sent to the named port. *)

val on_request : t -> port:string -> server_decision
(** Hook point: a server is about to handle a request from the named
    port. *)

val on_disk_write : t -> disk:string -> disk_decision
(** Hook point: a write request is reaching the named disk's media. *)

val injected_crashes : t -> int
val injected_wedges : t -> int
val injected_torn_writes : t -> int
val injected_reorders : t -> int

val injected_disk_faults : t -> int
(** Sum of all four storage-fault counters. *)

val trace : t -> (int * string * string) list
(** Every injected fault in order: (event number, port, fault kind).
    Two plans with the same seed driven by the same event sequence have
    equal traces. *)
