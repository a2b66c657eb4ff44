(** Fully-associative translation lookaside buffer with LRU replacement.

    Keyed on virtual page number.  The simulated architecture has untagged
    TLB entries (x86 CR3 semantics), so an address-space switch must
    {!flush} — this is the mechanism behind the RPC path's extra page
    walks in Table 2.  Replacement is exact LRU, the lowest index winning
    ties; invalidated entries keep their place in the LRU order. *)

type t

val create : entries:int -> page_size:int -> t
(** @raise Invalid_argument when [page_size] is not a power of two. *)

val access : t -> int -> bool
(** [access t vaddr] is [true] when the page holding [vaddr] is resident;
    on miss the translation is installed (evicting LRU). *)

val invalidate : t -> int -> unit
(** [invalidate t vaddr] drops the translation for the page holding
    [vaddr], if resident.  Other entries are untouched — this is the
    single-page [invlpg] a remap shootdown issues, not a full flush. *)

val flush : t -> unit
val entries : t -> int
val resident : t -> int
