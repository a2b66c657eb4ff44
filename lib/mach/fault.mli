(** Deterministic, seeded fault-injection plans.

    A plan scripts failures — kill a named port, crash a server at its
    Nth request, drop or delay a message — and/or injects them at random
    parts-per-million rates.  It is one table keyed by (site, action),
    where a site is a port or disk name, and each entry draws from its
    own generator, seeded from the plan's seed, the site and the
    action: traffic at one site never moves another site's faults.  The
    plan itself is pure decision state: {!Ipc}, {!Rpc} and the disk
    driver consult it at their hook points and apply what it decides,
    so the same plan driven by the same event sequence replays
    identically (the regression tests and the [fault-storm] benchmark
    depend on this).

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

val step : int -> int
(** One drand48 step on a 48-bit state: [state * 0x5DEECE66D + 0xB]
    mod 2{^48}.  Bit-exact and process-independent. *)

val script : t -> site:string -> n:int -> action -> unit
(** Script [action] on the [n]th event (1-based) at [site], a port or
    disk name.  The action decides the hook it fires on: server actions
    ({!Kill_port}, {!Crash_server}, {!Wedge_server}) on the requests a
    server takes from the port, message actions on the sends towards
    it, disk actions on the writes reaching the disk's media while
    powered.  A scripted event draws no rate. *)

val set_rate : t -> ?site:string -> ppm:int -> action -> unit
(** Inject [action] at random, [ppm] parts per million of its hook's
    events at [site], or at every site without one (a site's own rate
    overrides the site-less one).  The hook tries its rated actions in
    a fixed order and injects the first whose draw fires. *)

val on_send : t -> port:string -> message_decision
(** Hook point: a message is about to be sent to the named port. *)

val on_request : t -> port:string -> server_decision
(** Hook point: a server is about to handle a request from the named
    port. *)

val on_disk_write : t -> disk:string -> disk_decision
(** Hook point: a write request is reaching the named disk's media. *)

val injected : t -> site:string -> action -> int
(** How often [action]'s kind was injected at [site], scripted or
    rated (the action's parameter is ignored). *)

val trace : t -> (int * string * string) list
(** Every injected fault in order: (event number, site, fault kind).
    Two plans with the same seed driven by the same event sequence have
    equal traces. *)
