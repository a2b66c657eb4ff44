(** The communications and networking shared service.

    Modelled on Taligent's networking frameworks: the protocol stack
    (ethernet / IP / UDP / TCP) is written against the {!Finegrain}
    object runtime — every layer is an object, every packet walks the
    layer objects' methods.  Built with [style:Fine_grained] it behaves
    like the system the paper shipped; with [style:Coarse] it is the
    MK++-disciplined comparator (experiment E6).

    Internally the server is sharded after DragonFly's netisr model:
    packets hash by destination port (binds, SYNs) or connection id
    (established traffic) to a fixed per-CPU protocol thread, so each
    socket's state is touched by exactly one shard — lock-free by
    construction, and checked at runtime by Machcheck's shard-crossing
    assertion.  With one shard (any uniprocessor boot) the machinery is
    inert and the server is cycle-identical to the original single-loop
    implementation.

    The network itself is a loopback wire with fixed latency on the
    machine's event queue; endpoints are ports on the local stack. *)

type t
type socket

val create :
  ?shards:int -> ?backlog:int -> Mach.Kernel.t -> style:Finegrain.style -> t
(** [shards] defaults to the machine's CPU count; with more than one
    shard a netisr thread is spawned per shard, affinity-bound to CPU
    [shard mod ncpus].  [backlog] (default 64) bounds each listener's
    pending-SYN queue: SYNs beyond it are refused ({!syn_drops}). *)

val objects : t -> Finegrain.t
(** The underlying object runtime (for footprint/dispatch statistics). *)

val packets_processed : t -> int
val checksum_bytes : t -> int

val zero_copy_sends : t -> int
(** Transmits whose payload went out by page remap rather than through
    the layers.  Payloads of at least a page (4 KiB) take this path
    automatically: each layer handles only the 54-byte header plus a
    descriptor, and the transfer is charged a map-entry edit per
    scatter/gather chunk and one TLB shootdown per side — never per
    byte. *)

(** {1 UDP} *)

val udp_socket : t -> port:int -> (socket, string) result
(** [Error] when the port is taken. *)

val udp_send : t -> socket -> dst_port:int -> bytes:int -> unit
(** Transmit a datagram to a local port over the simulated wire (bulk
    payloads go zero-copy — see {!zero_copy_sends}). *)

val udp_send_vec : t -> socket -> dst_port:int -> iov:int list -> unit
(** Scatter/gather datagram: the chunks leave as one packet whose header
    is walked once; on the zero-copy path each chunk costs its own
    map-entry edit. *)

val udp_recv : t -> socket -> int * int
(** Blocks for the next datagram; returns [(source port, bytes)]. *)

val try_recv : t -> socket -> (int * int) option
(** Non-blocking {!udp_recv} / {!tcp_recv}: [None] when the socket's
    receive queue is empty. *)

val pending : socket -> int

(** {1 TCP (minimal: handshake, in-order data)} *)

val tcp_listen : t -> port:int -> (socket, string) result
val tcp_accept : t -> socket -> socket
(** Blocks for an incoming connection.  The child socket homes on the
    hash of its connection id — often a different shard than the
    listener's; the install travels over the cross-shard registry
    protocol ({!cross_shard_accepts}). *)

val tcp_connect : t -> dst_port:int -> (socket, string) result
(** Blocks through the three-way handshake. *)

val tcp_connect_start : t -> dst_port:int -> (socket, string) result
(** Non-blocking connect: sends the SYN and returns immediately; poll
    {!established}.  Storm drivers use this so a flooded (dropped) SYN
    never wedges the calling thread. *)

val tcp_send : t -> socket -> bytes:int -> unit
val tcp_send_vec : t -> socket -> iov:int list -> unit
(** Gathered segment; same zero-copy selection as {!udp_send_vec}. *)

val tcp_recv : t -> socket -> int
(** Blocks for the next in-order segment; returns its size. *)

val established : socket -> bool

val local_port : socket -> int
(** The socket's bound local port (ephemeral ones are reused after
    {!close} via the per-shard free lists). *)

val close : t -> socket -> unit

(** {1 Storm / attack harness} *)

val inject_udp : t -> src_port:int -> dst_port:int -> bytes:int -> unit
(** Inject a datagram as if a remote client sent it: the packet enters
    at the wire edge — no transmit-side stack walk is charged, because
    an external sender's stack runs on the client's hardware — and
    delivery steers by the normal hash.  [src_port] is free-form, so
    one generator can impersonate thousands of clients. *)

val inject_syn : t -> src_port:int -> dst_port:int -> conn:int -> unit
(** Inject a bare SYN no local socket backs: the accepting listener will
    SYNACK into the void and the child sits half-open — the load of a
    SYN storm or a slowloris client.  The caller owns conn-id
    uniqueness; use ids far above the strided allocator (>= 1_000_000). *)

val reap_half_open : t -> older_than:int -> int
(** Close half-open (embryonic) connections older than [older_than]
    cycles — the slowloris defence.  Returns the number reaped. *)

(** {1 Shard micro-reboot}

    A single protocol shard can be killed and reincarnated while the
    rest of the server keeps serving.  The kill terminates the shard's
    netisr thread and wipes its tables; the rebirth rebuilds them from
    the cross-shard port registry, which kept a copy of every bound
    socket record with its bind message.  Acked data is never lost —
    socket rx queues live on the endpoint records, not in shard tables —
    and only in-flight packets (the rx ring plus wire arrivals during
    the outage) are dropped and counted; closed-loop clients re-drive
    them through their retry paths.  Untouched shards are unaffected,
    cycle for cycle.  Machcheck's reincarnation checker audits the
    round trip: every socket marked at kill time must be restored, no
    stale registry entries, no leaked port rights. *)

val kill_shard : t -> shard:int -> unit
(** Terminate [shard]'s netisr thread and wipe its socket/conn/embryonic
    tables, free lists and rx ring (ring contents counted in
    {!reboot_drops}).  While dead, packets steered to the shard are
    dropped and counted, and socket allocation on it fails fast.
    @raise Invalid_argument if the shard is already dead. *)

val reincarnate_shard : t -> shard:int -> unit
(** Rebuild the shard from the registry: sockets reinstalled (one
    cross-shard message charged each), connection refcounts and the
    embryonic table rederived from the sockets themselves (so the
    half-open reaper keeps working), the ephemeral free list and
    high-water hint reconstructed from the registry's residue-class
    holdings, leaked registry claims reported as rights residue, and a
    fresh generation-named netisr thread spawned.  Blocked receivers are
    woken so closed-loop clients re-drive anything lost in flight.
    @raise Invalid_argument if the shard is not dead. *)

val shard_dead : t -> shard:int -> bool
val shard_generation : t -> shard:int -> int
(** Micro-reboots this shard has completed. *)

val reboot_drops : t -> int
(** In-flight packets lost to shard reboots (rx-ring contents at kill
    plus wire arrivals while dead) — never acked data. *)

val shard_reincarnations : t -> int
(** Total shard micro-reboots completed serverwide. *)

val half_open : t -> int
(** Connections currently mid-handshake (across all shards). *)

val set_delivery_probe : t -> (int -> int -> unit) -> unit
(** Call [f shard latency] for every packet processed, where [latency]
    is home-shard CPU cycles from rx-ring entry (wire exit) to socket
    delivery — the ring wait plus protocol processing the netserver
    owns, excluding simulated wire travel and cross-CPU clock drift.
    [shard] lets callers keep per-shard distributions. *)

val clear_delivery_probe : t -> unit

(** {1 Shard observability} *)

val shard_count : t -> int
val shard_delivered : t -> int array
(** Packets each shard processed — the occupancy-fairness numerator. *)

val shard_batches : t -> int array
(** Netisr drain activations per shard (delivered/batches = batching). *)

val port_shard : t -> port:int -> int
(** Which shard the steering hash assigns [port]'s traffic to — the
    flow-to-netisr mapping a smart NIC or traffic generator would use
    for per-queue accounting. *)

val syn_drops : t -> int
(** SYNs refused because the listener's backlog was full. *)

val wire_drops : t -> int
(** Packets lost to injected wire faults ({!Mach.Fault}). *)

val reaped_half_open : t -> int
val registry_messages : t -> int
(** Cross-shard port-registry messages (bind/unbind/accept installs). *)

val cross_shard_accepts : t -> int
(** Accepted children whose home shard differs from the listener's. *)
