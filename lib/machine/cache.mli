(** Set-associative cache model with LRU replacement.

    The cache is a tag store only: it tracks which physical line addresses
    are resident, not their contents.  That is all the cost model needs —
    hits and misses drive cycle and bus charges in {!Cpu}.

    Lines and sets are located by shift and mask, so [create] requires
    the line size and the set count ([size / (line * assoc)]) to be
    powers of two.  Replacement is exact LRU, the lowest way winning
    ties; {!flush} invalidates lines but keeps their LRU stamps. *)

type t

val create : Config.cache_geometry -> t
(** @raise Invalid_argument when the line size or the set count is not a
    power of two. *)

val access : t -> int -> bool
(** [access t addr] looks up the line containing physical address [addr],
    inserting it (evicting LRU) on miss.  Returns [true] on hit. *)

val probe : t -> int -> bool
(** [probe t addr] is like {!access} but without side effects. *)

val flush : t -> unit
(** Invalidate every line. *)

val lines : t -> int
(** Total number of lines the cache can hold. *)

val resident : t -> int
(** Number of currently valid lines. *)
