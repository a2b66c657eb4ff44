open Mach.Ktypes

type point = {
  pt_system : string;
  pt_bytes : int;
  pt_sim_cycles_per_op : float;
  pt_host_ns_per_op : float;
}

type result = {
  r_workers : int;
  r_iters : int;
  r_points : point list;
  r_reply_hits : int;
  r_reply_misses : int;
  r_kbuf_allocs : int;
  r_kbuf_frees : int;
  r_kbuf_recycles : int;
  r_kbuf_resets : int;
  r_kbuf_peak_bytes : int;
}

(* Payloads above this go out of line. *)
let ool_threshold = 1024

(* One sustained run: [workers] client/server pairs on one machine, each
   pair doing [iters] round trips through the given transport.  The
   scheduler interleaves the pairs, so queue depths and buffer pressure
   resemble a loaded system rather than a lone ping-pong. *)
let measure ~system ~workers ~iters ~bytes =
  let m = Machine.create Machine.Config.pentium_133 in
  let k = Mach.Kernel.boot m in
  let sys = k.Mach.Kernel.sys in
  for w = 1 to workers do
    let client =
      Mach.Kernel.task_create k ~name:(Printf.sprintf "client%d" w) ()
    in
    let server =
      Mach.Kernel.task_create k ~name:(Printf.sprintf "server%d" w) ()
    in
    let port = Mach.Port.allocate sys ~receiver:server ~name:"svc" in
    match system with
    | `Mach_msg ->
        ignore
          (Mach.Kernel.thread_spawn k server ~name:"srv" (fun () ->
               Mach.Ipc.serve sys port (fun msg ->
                   List.iter
                     (fun r ->
                       Mach.Vm.touch sys server ~addr:r.ool_addr ~write:true
                         ~bytes:r.ool_bytes ())
                     msg.msg_ool;
                   simple_message ()))
            : thread);
        ignore
          (Mach.Kernel.thread_spawn k client ~name:"cl" (fun () ->
               let buffer =
                 if bytes > ool_threshold then
                   Mach.Vm.allocate sys client ~bytes ()
                 else 0
               in
               let message () =
                 if bytes <= ool_threshold then
                   simple_message ~inline_bytes:bytes ()
                 else begin
                   Mach.Vm.touch sys client ~addr:buffer ~write:true ~bytes ();
                   simple_message ~inline_bytes:64 ~ool:[ (buffer, bytes) ] ()
                 end
               in
               for _ = 1 to iters do
                 ignore (Mach.Ipc.call sys port (message ()))
               done;
               Mach.Port.destroy sys port)
            : thread)
    | `Ibm_rpc | `Rpc_copy | `Rpc_remap ->
        ignore
          (Mach.Kernel.thread_spawn k server ~name:"srv" (fun () ->
               Mach.Rpc.serve sys port (fun _msg -> simple_message ()))
            : thread);
        ignore
          (Mach.Kernel.thread_spawn k client ~name:"cl" (fun () ->
               (* Large payloads go out of line; the RPC layer remaps
                  page-aligned regions and physically copies the rest, so
                  `Rpc_copy (the copy-vs-remap baseline) defeats the
                  auto-selection by offsetting into the page.  Filled
                  once: the remap path shares pages copy-on-write, so a
                  prepared buffer can be sent over and over. *)
               let ool = bytes > ool_threshold in
               let buffer =
                 if not ool then 0
                 else begin
                   let b =
                     Mach.Vm.allocate sys client ~bytes:(bytes + page_size) ()
                   in
                   Mach.Vm.touch sys client ~addr:b ~write:true ~bytes ();
                   if system = `Rpc_copy then b + 32 else b
                 end
               in
               let message () =
                 if ool then
                   simple_message ~inline_bytes:64 ~ool:[ (buffer, bytes) ] ()
                 else simple_message ~inline_bytes:bytes ()
               in
               for _ = 1 to iters do
                 ignore (Mach.Rpc.call sys port (message ()))
               done;
               Mach.Port.destroy sys port)
            : thread)
  done;
  let c0 = Machine.now m in
  let h0 = Unix.gettimeofday () in
  Mach.Kernel.run k;
  let host_ns = (Unix.gettimeofday () -. h0) *. 1e9 in
  let ops = float_of_int (workers * iters) in
  let stats = Mach.Ktext.buffer_stats k.Mach.Kernel.ktext in
  ( float_of_int (Machine.now m - c0) /. ops,
    host_ns /. ops,
    Mach.Ipc.reply_cache_hits sys,
    Mach.Ipc.reply_cache_misses sys,
    stats )

let default_sizes = [ 0; 32; 512; 4096; 16384; 65536 ]

let run ?(workers = 4) ?(iters = 200) ?(sizes = default_sizes) () =
  if sizes = [] then invalid_arg "Ipc_stress.run: empty size list";
  let hits = ref 0 and misses = ref 0 in
  let allocs = ref 0 and frees = ref 0 and recycles = ref 0 in
  let resets = ref 0 and peak = ref 0 in
  let point system name bytes =
    let sim, host, h, ms, (kb : Mach.Ktext.buffer_stats) =
      measure ~system ~workers ~iters ~bytes
    in
    hits := !hits + h;
    misses := !misses + ms;
    allocs := !allocs + kb.Mach.Ktext.bs_allocs;
    frees := !frees + kb.Mach.Ktext.bs_frees;
    recycles := !recycles + kb.Mach.Ktext.bs_recycles;
    resets := !resets + kb.Mach.Ktext.bs_resets;
    if kb.Mach.Ktext.bs_peak_bytes > !peak then
      peak := kb.Mach.Ktext.bs_peak_bytes;
    { pt_system = name; pt_bytes = bytes; pt_sim_cycles_per_op = sim;
      pt_host_ns_per_op = host }
  in
  let points =
    List.concat_map
      (fun bytes ->
        [ point `Mach_msg "mach_msg" bytes; point `Ibm_rpc "ibm_rpc" bytes ]
        @
        (* the copy-vs-remap series: same transport, same payload, the
           transfer pinned to each path (remap only engages at page
           granularity, so smaller sizes have no remap point) *)
        if bytes >= remap_threshold then
          [ point `Rpc_copy "rpc_copy" bytes;
            point `Rpc_remap "rpc_remap" bytes ]
        else [])
      sizes
  in
  {
    r_workers = workers;
    r_iters = iters;
    r_points = points;
    r_reply_hits = !hits;
    r_reply_misses = !misses;
    r_kbuf_allocs = !allocs;
    r_kbuf_frees = !frees;
    r_kbuf_recycles = !recycles;
    r_kbuf_resets = !resets;
    r_kbuf_peak_bytes = !peak;
  }

(* E3, the paper's 2-10x: mach_msg over the physically copying RPC at
   each size -- [rpc_copy] where the copy-vs-remap pair exists, [ibm_rpc]
   below the remap threshold. *)
let improvement r =
  let cost system bytes =
    (List.find (fun p -> p.pt_system = system && p.pt_bytes = bytes) r.r_points)
      .pt_sim_cycles_per_op
  in
  List.filter_map
    (fun p ->
      if p.pt_system <> "mach_msg" then None
      else
        let copy =
          if p.pt_bytes >= remap_threshold then "rpc_copy" else "ibm_rpc"
        in
        Some (p.pt_bytes, p.pt_sim_cycles_per_op /. cost copy p.pt_bytes))
    r.r_points

let to_json r =
  let open Bench_json in
  let point p =
    Obj
      [ ("system", Str p.pt_system); ("bytes", int p.pt_bytes);
        ("sim_cycles_per_op", fixed 1 p.pt_sim_cycles_per_op);
        ("host_ns_per_op", fixed 1 p.pt_host_ns_per_op) ]
  in
  let e3 (bytes, x) =
    Obj [ ("bytes", int bytes); ("mach_msg_over_copy_rpc", fixed 2 x) ]
  in
  Obj
    [ ("workers", int r.r_workers); ("iters", int r.r_iters);
      ( "reply_cache",
        Obj
          [ ("hits", int r.r_reply_hits); ("misses", int r.r_reply_misses) ] );
      ( "kbuf",
        Obj
          [ ("allocs", int r.r_kbuf_allocs); ("frees", int r.r_kbuf_frees);
            ("recycles", int r.r_kbuf_recycles);
            ("resets", int r.r_kbuf_resets);
            ("peak_bytes", int r.r_kbuf_peak_bytes) ] );
      ("results", Arr (List.map point r.r_points));
      ("e3_improvement", Arr (List.map e3 (improvement r)));
      ("paper", Str "E3: a two to ten times improvement, falling with bytes") ]
