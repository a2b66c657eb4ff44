(** The vfs-walk experiment: path resolution through the vnode layer and
    the name cache.

    Builds a deep directory chain and a wide directory of small files on
    an HPFS volume, then measures the walk phases: cold (misses fill the
    cache), hot (the repeated-lookup phase whose hit rate is the
    acceptance number), the deepest path with the cache on versus off
    (their cycles/op ratio is [deep_speedup]), and concurrent lookups
    racing across CPUs. *)

type phase = {
  ph_name : string;
  ph_ops : int;
  ph_cycles : int;
  ph_cycles_per_op : float;
  ph_hits : int;  (** positive + negative cache hits during the phase *)
  ph_misses : int;
  ph_hit_rate : float;  (** hits / (hits + misses); 0 when no probes *)
}

type result = {
  r_depth : int;
  r_files : int;
  r_repeats : int;
  r_cpus : int;
  r_phases : phase list;
  r_hot_hit_rate : float;
  r_deep_cached_cycles_per_op : float;
  r_deep_raw_cycles_per_op : float;
  r_deep_speedup : float;  (** deep-raw over deep-cached cycles/op *)
  r_concurrent_ok : int;
  r_concurrent_expected : int;
  r_compromises : int;
  r_cache : Fileserver.Namecache.stats;  (** final cache counters *)
}

val run :
  ?depth:int -> ?files:int -> ?repeats:int -> ?cpus:int -> unit -> result
(** Defaults: a 12-deep chain, 48 wide files, 6 hot repeats, 4 CPUs. *)

val to_json : result -> Bench_json.t
(** The body of [BENCH_vfs.json], without envelope or machcheck. *)
