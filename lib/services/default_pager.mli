(** The default pager: backing store for anonymous memory.

    Owns a swap extent on the system disk; installs itself as the
    kernel's default backing store.  Page-ins are synchronous for the
    faulting thread (it sleeps on the disk), page-outs are
    fire-and-forget but occupy the disk head — the mechanism behind
    visible thrashing on the 16 MB Table 1 configuration. *)

type t

val start : Mach.Kernel.t -> t
(** Claims 16384 disk blocks from block 24576 and installs the backing
    store. *)

val pageins : t -> int
val pageouts : t -> int
val swap_blocks_used : t -> int
