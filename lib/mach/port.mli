(** Ports and port rights.

    Ports are the kernel's capabilities: right entries live in a task's
    port space and name either the receive right (exactly one task) or
    send rights.  Both IPC implementations (the Mach 3.0 [mach_msg] path
    and the IBM RPC rework) move messages between ports; the name service
    above the kernel exists precisely because these names are local to a
    port space. *)

open Ktypes

val allocate : Sched.t -> receiver:task -> name:string -> port
(** Create a port, depositing the receive right in [receiver]'s port
    space.  Charges the port-allocation path. *)

val insert_right : Sched.t -> task -> port -> right -> int
(** Give [task] a right to [port]; returns the name in [task]'s space.
    If the task already holds a right to the port the same name is
    reused with a bumped reference count; the held right is only ever
    upgraded (receive > send > send-once), never weakened. *)

val request_notification : Sched.t -> port -> (unit -> unit) -> unit
(** Dead-name notification: run the callback when the port is destroyed
    (immediately if it is already dead).  The supervision machinery uses
    this to learn that a watched server has crashed. *)

val lookup : task -> int -> right_entry option
(** Translate a name in the task's space. *)

val lookup_port : task -> port -> int option
(** Reverse lookup: the task's name for a port, if any. *)

val deallocate_right : Sched.t -> task -> int -> kern_return
(** Drop one reference; the entry dies at zero.  Freeing a name the
    space does not hold returns [Kern_invalid_name] and is reported to
    an attached Machcheck instance as a double-free. *)

val move_right : Sched.t -> from:task -> into:task -> port -> kern_return
(** Move one reference of [from]'s right to [port] into [into]'s space
    (consuming the source reference) — the explicit, checkable form of
    handing a capability to another task. *)

val destroy : Sched.t -> port -> unit
(** Mark the port dead and wake every blocked sender/receiver/server/
    client with [Kern_port_dead].  The receive right dies with the port:
    the receiver's namespace entry is removed (it previously lingered as
    a dangling dead-port name). *)

val rights_held : task -> int
(** Number of live right entries in the task's space. *)

val fault_on_send : Sched.t -> port -> Fault.message_decision
val fault_on_request : Sched.t -> port -> Fault.server_decision
(** What the system's fault plan does to a message sent to, or a request
    served from, this port.  Free without a plan; an injected decision
    charges the fault-bookkeeping chunk. *)
