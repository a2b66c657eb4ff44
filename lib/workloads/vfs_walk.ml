(* The vfs-walk experiment: path resolution through the vnode layer and
   the name cache, measured in simulated cycles.

   One machine, one HPFS volume.  The driver builds a deep directory
   chain and a wide directory of small files, then walks them in phases:

     build       — mkdir the chain, create and fill the files;
     cold        — first stat of every path: misses fill the cache;
     hot         — the same set stat repeatedly: the repeated-lookup
                   phase whose hit rate is the acceptance number;
     deep-cached — the deepest path resolved again and again with the
                   cache on (each component is one charged hash probe);
     deep-raw    — the same walks with the cache off: every component is
                   a per-format directory scan through the block cache;
     concurrent  — one walker thread per CPU, each statting the whole
                   wide set, lookups racing across CPUs.

   deep_speedup = deep-raw cycles/op over deep-cached cycles/op.  Under
   Machcheck's vnode checker a finding means the walk used a reclaimed
   vnode or a stale entry. *)

module F = Fileserver

type phase = {
  ph_name : string;
  ph_ops : int;
  ph_cycles : int;
  ph_cycles_per_op : float;
  ph_hits : int;  (* positive + negative cache hits during the phase *)
  ph_misses : int;
  ph_hit_rate : float;  (* hits / (hits + misses); 0 when no probes *)
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
  r_deep_speedup : float;
  r_concurrent_ok : int;
  r_concurrent_expected : int;
  r_compromises : int;
  r_cache : F.Namecache.stats;  (* final cache counters *)
}

let ok_exn = function Ok v -> v | Error e -> Rig.fail_fs e

let deep_path depth =
  "/os2/"
  ^ String.concat "/" (List.init depth (Printf.sprintf "d%02d"))
  ^ "/leaf.dat"

let wide_path i = Printf.sprintf "/os2/wide/f%03d.dat" i

let run ?(depth = 12) ?(files = 48) ?(repeats = 6) ?(cpus = 4) () =
  if depth < 1 then invalid_arg "Vfs_walk.run: depth must be >= 1";
  let m = Machine.create (Rig.config ~ncpus:cpus) in
  let k = Mach.Kernel.boot m in
  let disk = m.Machine.disk in
  let vfs = F.Vfs.create ~kernel:k () in
  ignore (Rig.mount_hpfs k disk vfs : F.Block_cache.t);
  let sem = F.Vfs.os2_semantics in
  let phases = ref [] in
  let measure name ops f =
    let s0 = F.Vfs.cache_stats vfs in
    let t0 = Machine.global_now m in
    f ();
    let cycles = Machine.global_now m - t0 in
    let s1 = F.Vfs.cache_stats vfs in
    let hits =
      s1.F.Namecache.cs_hits + s1.F.Namecache.cs_neg_hits
      - (s0.F.Namecache.cs_hits + s0.F.Namecache.cs_neg_hits)
    in
    let misses = s1.F.Namecache.cs_misses - s0.F.Namecache.cs_misses in
    let probes = hits + misses in
    let ph =
      {
        ph_name = name;
        ph_ops = ops;
        ph_cycles = cycles;
        ph_cycles_per_op =
          (if ops = 0 then 0.0
           else float_of_int cycles /. float_of_int ops);
        ph_hits = hits;
        ph_misses = misses;
        ph_hit_rate =
          (if probes = 0 then 0.0
           else float_of_int hits /. float_of_int probes);
      }
    in
    phases := ph :: !phases;
    ph
  in
  let stat_all () =
    ignore (ok_exn (F.Vfs.stat vfs sem ~path:(deep_path depth)));
    for i = 0 to files - 1 do
      ignore (ok_exn (F.Vfs.stat vfs sem ~path:(wide_path i)))
    done
  in
  let deep_walks = 32 in
  let concurrent_ok = ref 0 in
  let driver = Mach.Kernel.task_create k ~name:"walker" () in
  ignore
    (Mach.Kernel.thread_spawn k driver ~name:"drive" (fun () ->
         ignore
           (measure "build" (depth + 1 + files) (fun () ->
                let dir = ref "/os2" in
                for d = 0 to depth - 1 do
                  dir := Printf.sprintf "%s/d%02d" !dir d;
                  ignore (ok_exn (F.Vfs.mkdir vfs sem ~path:!dir))
                done;
                ignore
                  (ok_exn
                     (F.Vfs.create_file vfs sem ~path:(!dir ^ "/leaf.dat")));
                ignore (ok_exn (F.Vfs.mkdir vfs sem ~path:"/os2/wide"));
                for i = 0 to files - 1 do
                  ignore (ok_exn (F.Vfs.create_file vfs sem ~path:(wide_path i)))
                done));
         (* drop the entries the creates primed, so "cold" is cold *)
         F.Vfs.set_namecache vfs false;
         F.Vfs.set_namecache vfs true;
         ignore (measure "cold" (1 + files) stat_all);
         ignore
           (measure "hot"
              (repeats * (1 + files))
              (fun () ->
                for _ = 1 to repeats do
                  stat_all ()
                done));
         ignore
           (measure "deep-cached" deep_walks (fun () ->
                for _ = 1 to deep_walks do
                  ignore (ok_exn (F.Vfs.stat vfs sem ~path:(deep_path depth)))
                done));
         F.Vfs.set_namecache vfs false;
         ignore
           (measure "deep-raw" deep_walks (fun () ->
                for _ = 1 to deep_walks do
                  ignore (ok_exn (F.Vfs.stat vfs sem ~path:(deep_path depth)))
                done));
         F.Vfs.set_namecache vfs true;
         (* racing walkers, one bound per CPU; the driver exits and the
            kernel runs until they drain *)
         for c = 0 to cpus - 1 do
           let task =
             Mach.Kernel.task_create k ~name:(Printf.sprintf "walk%d" c) ()
           in
           ignore
             (Mach.Kernel.thread_spawn k task ~name:"walk" ~affinity:c
                ~bound:true (fun () ->
                  for i = 0 to files - 1 do
                    match F.Vfs.stat vfs sem ~path:(wide_path i) with
                    | Ok _ -> incr concurrent_ok
                    | Error _ -> ()
                  done)
               : Mach.Ktypes.thread)
         done)
      : Mach.Ktypes.thread);
  Mach.Kernel.run k;
  let phase name = List.find (fun p -> p.ph_name = name) !phases in
  let hot = phase "hot" in
  let cached = phase "deep-cached" in
  let raw = phase "deep-raw" in
  {
    r_depth = depth;
    r_files = files;
    r_repeats = repeats;
    r_cpus = cpus;
    r_phases = List.rev !phases;
    r_hot_hit_rate = hot.ph_hit_rate;
    r_deep_cached_cycles_per_op = cached.ph_cycles_per_op;
    r_deep_raw_cycles_per_op = raw.ph_cycles_per_op;
    r_deep_speedup =
      (if cached.ph_cycles_per_op > 0.0 then
         raw.ph_cycles_per_op /. cached.ph_cycles_per_op
       else 0.0);
    r_concurrent_ok = !concurrent_ok;
    r_concurrent_expected = cpus * files;
    r_compromises = F.Vfs.compromises vfs;
    r_cache = F.Vfs.cache_stats vfs;
  }

let to_json r =
  let open Bench_json in
  let phase p =
    Obj
      [ ("phase", Str p.ph_name); ("ops", int p.ph_ops);
        ("cycles", int p.ph_cycles);
        ("cycles_per_op", fixed 1 p.ph_cycles_per_op);
        ("cache_hits", int p.ph_hits); ("cache_misses", int p.ph_misses);
        ("hit_rate", fixed 4 p.ph_hit_rate) ]
  in
  let c = r.r_cache in
  Obj
    [ ( "config",
        Obj
          [ ("depth", int r.r_depth); ("files", int r.r_files);
            ("repeats", int r.r_repeats); ("cpus", int r.r_cpus) ] );
      ("phases", Arr (List.map phase r.r_phases));
      ("hot_hit_rate", fixed 4 r.r_hot_hit_rate);
      ("deep_cached_cycles_per_op", fixed 1 r.r_deep_cached_cycles_per_op);
      ("deep_raw_cycles_per_op", fixed 1 r.r_deep_raw_cycles_per_op);
      ("deep_speedup", fixed 2 r.r_deep_speedup);
      ( "concurrent",
        Obj
          [ ("completed", int r.r_concurrent_ok);
            ("expected", int r.r_concurrent_expected) ] );
      ("compromises", int r.r_compromises);
      ( "cache",
        Obj
          [ ("capacity", int c.F.Namecache.cs_capacity);
            ("entries", int c.F.Namecache.cs_entries);
            ("insertions", int c.F.Namecache.cs_insertions);
            ("evictions", int c.F.Namecache.cs_evictions);
            ("invalidations", int c.F.Namecache.cs_invalidations) ] ) ]
