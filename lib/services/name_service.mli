(** The X.500-flavoured name service, as a user-level server task.

    Port rights only have meaning inside a port space, and the kernel
    offers no name→port resolution, so every client and server finds the
    other through this service.  Its database ({!Name_db}) supports
    attributes on names, hierarchical paths, attribute search and change
    notification — and the service is correspondingly expensive, which
    is why Release 2 added the {!Name_simple} alternative for embedded
    configurations (experiment E9 measures the difference).

    All client operations run over {!Mach.Rpc} from the calling thread's
    task. *)

open Mach.Ktypes

type t

val start : Mach.Kernel.t -> Runtime.t -> t
(** Create the name-server task and its service thread. *)

val port : t -> port
val task : t -> task
val db : t -> Name_db.t
(** Direct database access for tests and for the boot task (which runs
    before RPC plumbing exists). *)

(** {1 Client operations (RPC)} *)

val bind :
  t -> path:string -> ?attributes:(string * string) list ->
  ?target:port -> unit -> bool

val resolve : t -> path:string -> Name_db.entry option
val resolve_port : t -> path:string -> port option
val unbind : t -> path:string -> bool
val list_children : t -> path:string -> string list

val requests_served : t -> int
