(** Sustained IPC throughput under load: [workers] concurrent
    client/server pairs hammering round trips through both transports
    (Mach 3.0 [mach_msg] and the IBM RPC rework) at several payload
    sizes, reporting simulated cycles per operation alongside host
    nanoseconds per operation, plus the reply-port-cache and kernel
    message-buffer statistics the run generated. *)

type point = {
  pt_system : string;
      (** ["mach_msg"], ["ibm_rpc"], or — at page-sized payloads — the
          copy-vs-remap comparison pair ["rpc_copy"] / ["rpc_remap"]
          (same transport with the out-of-line transfer pinned to the
          physical-copy or page-remap path respectively) *)
  pt_bytes : int;
  pt_sim_cycles_per_op : float;
  pt_host_ns_per_op : float;
}

type result = {
  r_workers : int;
  r_iters : int;  (** round trips per worker pair per point *)
  r_points : point list;
  r_reply_hits : int;  (** reply-port cache hits, summed over runs *)
  r_reply_misses : int;
  r_kbuf_allocs : int;  (** kernel msg-buffer stats, summed over runs *)
  r_kbuf_frees : int;
  r_kbuf_recycles : int;
  r_kbuf_resets : int;  (** whole-arena exhaustion resets, summed *)
  r_kbuf_peak_bytes : int;  (** max peak across runs *)
}

val run : ?workers:int -> ?iters:int -> ?sizes:int list -> unit -> result
(** Defaults: 4 worker pairs, 200 round trips each, sizes 0, 32, 512,
    4096, 16384 and 65536 bytes.
    @raise Invalid_argument on an empty size list. *)

val improvement : result -> (int * float) list
(** E3 per size: [mach_msg] cycles over the physically copying RPC's
    ([rpc_copy] where measured, [ibm_rpc] below the remap threshold). *)

val to_json : result -> Bench_json.t
(** The body of [BENCH_ipc.json], without envelope or machcheck. *)
