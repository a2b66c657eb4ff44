(** The name database: an X.500-flavoured hierarchical directory.

    Pure data structure (no simulated cost — the {!Name_service} wrapper
    charges).  Entries live at slash-separated paths, carry attribute
    lists and optionally a port, and changes fire registered
    notifications, matching the paper's description: "storing attribute
    information with names, complex naming formats, sophisticated search
    mechanisms and notifications on name space alteration". *)

open Mach.Ktypes

type t

type entry = {
  path : string;
  attributes : (string * string) list;
  bound_port : port option;
}

type change = Added of string | Removed of string | Modified of string

val create : unit -> t

val bind :
  t -> path:string -> ?attributes:(string * string) list -> ?port:port ->
  unit -> (unit, string) result
(** Create the entry (and any missing intermediate directories).  Fails
    when the leaf already exists. *)

val rebind :
  t -> path:string -> ?attributes:(string * string) list -> ?port:port ->
  unit -> unit
(** Like {!bind} but replaces an existing entry. *)

val unbind : t -> path:string -> bool

val resolve : t -> path:string -> entry option
val resolve_port : t -> path:string -> port option

val list_children : t -> path:string -> string list
(** Immediate child names, sorted. *)

val search_attribute : t -> key:string -> value:string -> entry list

val subscribe : t -> prefix:string -> (change -> unit) -> unit
(** Notification on any alteration under [prefix]. *)

val size : t -> int
(** Number of entries (directories included). *)

val steps : path:string -> int
(** Number of components in a path — the walk length a cost model needs. *)
