(* The perf-path work: the kernel message-buffer free list, the
   per-thread reply-port cache, the O(1) block-cache LRU, the sub-cycle
   clock, and the ipc-stress benchmark's machine-readable output. *)

open Mach.Ktypes

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* --- kernel message buffers --------------------------------------------- *)

let test_kbuf_bounds () =
  let k = Test_util.kernel_on () in
  let kt = k.Mach.Kernel.ktext in
  let region = Mach.Ktext.buffer_region kt in
  let base = region.Machine.Layout.base in
  let limit = base + region.Machine.Layout.size in
  (* sizes from degenerate to larger-than-the-arena; every returned
     buffer must lie inside the region *)
  for i = 0 to 9_999 do
    let bytes = [| 0; 1; 31; 32; 33; 512; 4096; 100_000 |].(i mod 8) in
    let addr = Mach.Ktext.buffer_alloc kt ~bytes in
    let reserved = min (max 32 bytes) region.Machine.Layout.size in
    checkb "addr >= base" true (addr >= base);
    checkb "addr+reserved <= limit" true (addr + reserved <= limit);
    Mach.Ktext.buffer_free kt addr
  done;
  let s = Mach.Ktext.buffer_stats kt in
  checki "nothing left in use" 0 s.Mach.Ktext.bs_in_use_bytes;
  checki "allocs" 10_000 s.Mach.Ktext.bs_allocs;
  checki "frees" 10_000 s.Mach.Ktext.bs_frees

let test_kbuf_free_realloc_round_trip () =
  let k = Test_util.kernel_on () in
  let kt = k.Mach.Kernel.ktext in
  let region = Mach.Ktext.buffer_region kt in
  let granules = region.Machine.Layout.size / 32 in
  (* fill the arena exactly, release it all, and fill it again: the free
     list must hand every granule back without an arena recycle *)
  let fill () =
    List.init granules (fun _ -> Mach.Ktext.buffer_alloc kt ~bytes:32)
  in
  let first = fill () in
  checki "arena full" region.Machine.Layout.size
    (Mach.Ktext.buffer_stats kt).Mach.Ktext.bs_in_use_bytes;
  List.iter (Mach.Ktext.buffer_free kt) first;
  checki "arena empty" 0
    (Mach.Ktext.buffer_stats kt).Mach.Ktext.bs_in_use_bytes;
  let second = fill () in
  checki "all addresses reissued" granules
    (List.length (List.sort_uniq compare second));
  let s = Mach.Ktext.buffer_stats kt in
  checki "second fill served from the quick lists" granules
    s.Mach.Ktext.bs_recycles;
  checki "no arena reset needed" 0 s.Mach.Ktext.bs_resets;
  List.iter (Mach.Ktext.buffer_free kt) second;
  (* double free of a stale address is ignored, not corrupting *)
  Mach.Ktext.buffer_free kt (List.hd second);
  checki "still empty" 0 (Mach.Ktext.buffer_stats kt).Mach.Ktext.bs_in_use_bytes

let test_kbuf_recycle_on_exhaustion () =
  let k = Test_util.kernel_on () in
  let kt = k.Mach.Kernel.ktext in
  let region = Mach.Ktext.buffer_region kt in
  let base = region.Machine.Layout.base in
  let limit = base + region.Machine.Layout.size in
  (* leak allocations past the arena size: the allocator must recycle
     the arena (counted) rather than walk out of bounds *)
  let granules = region.Machine.Layout.size / 32 in
  for _ = 1 to granules + 100 do
    let addr = Mach.Ktext.buffer_alloc kt ~bytes:32 in
    checkb "in bounds under pressure" true (addr >= base && addr + 32 <= limit)
  done;
  let s = Mach.Ktext.buffer_stats kt in
  checkb "exhaustion was counted" true (s.Mach.Ktext.bs_resets >= 1);
  checki "peak capped at capacity" region.Machine.Layout.size
    s.Mach.Ktext.bs_peak_bytes

(* --- reply-port cache ---------------------------------------------------- *)

(* Boot, run a server on [port], and run [body] in a client thread. *)
let with_client_server body =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let server = Mach.Kernel.task_create k ~name:"server" () in
  let port = Mach.Port.allocate sys ~receiver:server ~name:"svc" in
  ignore
    (Mach.Kernel.thread_spawn k server ~name:"srv" (fun () ->
         Mach.Ipc.serve sys port (fun _ -> simple_message ()))
      : thread);
  let result = ref None in
  let client = Mach.Kernel.task_create k ~name:"client" () in
  ignore
    (Mach.Kernel.thread_spawn k client ~name:"cl" (fun () ->
         result := Some (body k sys port);
         Mach.Port.destroy sys port)
      : thread);
  Mach.Kernel.run k;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "client thread did not complete"

let call_ok sys port =
  match Mach.Ipc.call sys port (simple_message ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (kern_return_to_string e)

let test_reply_port_reuse () =
  with_client_server (fun _k sys port ->
      call_ok sys port;
      let th = Mach.Sched.self () in
      let first =
        match th.reply_port_cache with
        | Some p -> p
        | None -> Alcotest.fail "no reply port cached after a call"
      in
      call_ok sys port;
      call_ok sys port;
      (match th.reply_port_cache with
      | Some p -> checkb "same physical reply port reused" true (p == first)
      | None -> Alcotest.fail "cache emptied by reuse");
      checki "one miss (first call)" 1 (Mach.Ipc.reply_cache_misses sys);
      checki "two hits" 2 (Mach.Ipc.reply_cache_hits sys))

let test_reply_port_invalidation_on_death () =
  with_client_server (fun _k sys port ->
      call_ok sys port;
      let th = Mach.Sched.self () in
      let first = Option.get th.reply_port_cache in
      (* the cached port dies (e.g. the task's name space was torn down);
         the next call must notice and allocate a fresh one *)
      Mach.Port.destroy sys first;
      call_ok sys port;
      let second = Option.get th.reply_port_cache in
      checkb "dead port not reused" true (first != second);
      checkb "replacement is live" false second.dead;
      checki "two misses" 2 (Mach.Ipc.reply_cache_misses sys))

let test_ipc_soak_buffers_bounded () =
  with_client_server (fun k sys port ->
      for _ = 1 to 10_000 do
        call_ok sys port
      done;
      let s = Mach.Ktext.buffer_stats k.Mach.Kernel.ktext in
      checki "soak forced no arena reset" 0 s.Mach.Ktext.bs_resets;
      checkb "message buffers are being recycled" true
        (s.Mach.Ktext.bs_recycles > 0);
      checkb "buffers are being freed" true
        (s.Mach.Ktext.bs_in_use_bytes < 4096);
      checkb "allocs matched by frees" true
        (s.Mach.Ktext.bs_allocs - s.Mach.Ktext.bs_frees < 64))

(* --- block-cache LRU ------------------------------------------------------ *)

let test_lru_eviction_order () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  let cache = Fileserver.Block_cache.create k disk ~capacity:2 () in
  let lru () = Fileserver.Block_cache.lru_block cache in
  ignore (Fileserver.Block_cache.read cache 1 : bytes);
  ignore (Fileserver.Block_cache.read cache 2 : bytes);
  check (Alcotest.option Alcotest.int) "oldest is 1" (Some 1) (lru ());
  (* touching 1 moves it to the front: 2 becomes the victim *)
  ignore (Fileserver.Block_cache.read cache 1 : bytes);
  check (Alcotest.option Alcotest.int) "touch reorders" (Some 2) (lru ());
  let misses_before = Fileserver.Block_cache.misses cache in
  ignore (Fileserver.Block_cache.read cache 3 : bytes);
  (* 2 was evicted; 1 survived because it was touched *)
  let hits_before = Fileserver.Block_cache.hits cache in
  ignore (Fileserver.Block_cache.read cache 1 : bytes);
  checki "1 still cached" (hits_before + 1) (Fileserver.Block_cache.hits cache);
  checki "3 was a miss" (misses_before + 1) (Fileserver.Block_cache.misses cache);
  ignore (Fileserver.Block_cache.read cache 2 : bytes);
  checki "2 re-misses after eviction" (misses_before + 2)
    (Fileserver.Block_cache.misses cache)

let test_lru_dirty_writeback () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  let cache = Fileserver.Block_cache.create k disk ~capacity:2 () in
  let bs = Fileserver.Block_cache.block_size cache in
  Fileserver.Block_cache.write cache 10 (Bytes.make bs 'a');
  ignore (Fileserver.Block_cache.read cache 11 : bytes);
  checki "no writeback yet" 0 (Fileserver.Block_cache.writebacks cache);
  (* fault in a third block: dirty block 10 is the LRU victim *)
  ignore (Fileserver.Block_cache.read cache 12 : bytes);
  checki "dirty victim written back" 1
    (Fileserver.Block_cache.writebacks cache);
  (* its data survived the round trip through the disk *)
  let back = Fileserver.Block_cache.read cache 10 in
  check Alcotest.char "contents persisted" 'a' (Bytes.get back 0)

(* --- clock precision ------------------------------------------------------ *)

let test_store_penalty_not_truncated () =
  let m = Test_util.pentium () in
  let cpu = m.Machine.cpu in
  let addr = 0x10000 in
  (* warm the line and the TLB so only the 0.5-cycle write penalty moves
     the clock *)
  Machine.Cpu.store cpu ~addr ~bytes:4;
  let t0 = Machine.Cpu.now_exact cpu in
  for _ = 1 to 101 do
    Machine.Cpu.store cpu ~addr ~bytes:4
  done;
  let dt = Machine.Cpu.now_exact cpu -. t0 in
  check (Alcotest.float 1e-9) "101 stores charge exactly 50.5 cycles" 50.5 dt;
  (* the integer clock rounds to nearest instead of truncating *)
  let diff =
    Float.abs (float_of_int (Machine.Cpu.now cpu) -. Machine.Cpu.now_exact cpu)
  in
  checkb "now is within half a cycle of the exact clock" true (diff <= 0.5)

(* --- ipc-stress output ---------------------------------------------------- *)

let test_ipc_stress_smoke () =
  let open Workloads.Ipc_stress in
  let r = run ~workers:1 ~iters:5 ~sizes:[ 0; 32 ] () in
  checki "two systems x two sizes" 4 (List.length r.r_points);
  List.iter
    (fun p ->
      checkb (p.pt_system ^ " cycles positive") true
        (p.pt_sim_cycles_per_op > 0.))
    r.r_points;
  (* write the BENCH file out and read it back, as the benchmark harness
     does *)
  let module Json = Bench_json in
  let e = Option.get (Workloads.Experiment.find "ipc-stress") in
  let doc =
    Workloads.Experiment.document e
      { Workloads.Experiment.json = to_json r; gates = []; check = None }
  in
  let path = Filename.temp_file "bench_ipc" ".json" in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  close_out oc;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Json.parse text with
  | Error e -> Alcotest.fail ("BENCH_ipc.json does not parse: " ^ e)
  | Ok doc ->
      (match Json.member "experiment" doc with
      | Some (Json.Str s) -> check Alcotest.string "experiment" "ipc-stress" s
      | _ -> Alcotest.fail "missing experiment field");
      (match Json.member "results" doc with
      | Some (Json.Arr rows) ->
          checki "result rows" 4 (List.length rows);
          List.iter
            (fun row ->
              List.iter
                (fun field ->
                  checkb (field ^ " present") true
                    (Json.member field row <> None))
                [ "system"; "bytes"; "sim_cycles_per_op"; "host_ns_per_op" ])
            rows
      | _ -> Alcotest.fail "missing results array");
      List.iter
        (fun field ->
          checkb (field ^ " present") true (Json.member field doc <> None))
        [ "schema_version"; "run"; "workers"; "iters"; "reply_cache"; "kbuf" ]

(* --- the uniprocessor cost model must survive SMP ------------------------ *)

let test_ncpus1_numbers_unchanged () =
  (* ncpus defaults to 1, which keeps every SMP path inert — no bus
     bookings, no coherence directory, the single-queue dispatch order.
     These golden numbers were captured before the SMP machine landed;
     any drift here means a multiprocessor change leaked into the
     uniprocessor cost model. *)
  let checkf = Alcotest.check (Alcotest.float 0.001) in
  let trap, rpc = Workloads.Micro.table2 () in
  checkf "table2 trap cycles" 964.0 trap.Workloads.Micro.t2_cycles;
  checkf "table2 rpc cycles" 5000.0 rpc.Workloads.Micro.t2_cycles;
  let r = Workloads.Ipc_stress.run ~workers:2 ~iters:20 ~sizes:[ 0; 512; 4096 ] () in
  let golden =
    [
      (("mach_msg", 0), 41005.10); (("ibm_rpc", 0), 5791.55);
      (("mach_msg", 512), 42721.90); (("ibm_rpc", 512), 7004.20);
      (("mach_msg", 4096), 71812.25); (("ibm_rpc", 4096), 7395.50);
      (("rpc_copy", 4096), 15948.50); (("rpc_remap", 4096), 7395.50);
    ]
  in
  List.iter
    (fun p ->
      let open Workloads.Ipc_stress in
      match List.assoc_opt (p.pt_system, p.pt_bytes) golden with
      | Some cycles ->
          checkf
            (Printf.sprintf "%s/%d cycles per op" p.pt_system p.pt_bytes)
            cycles p.pt_sim_cycles_per_op
      | None ->
          Alcotest.failf "unexpected ipc-stress point %s/%d" p.pt_system
            p.pt_bytes)
    r.Workloads.Ipc_stress.r_points;
  checki "every golden point measured"
    (List.length golden)
    (List.length r.Workloads.Ipc_stress.r_points)

let suite =
  [
    Alcotest.test_case "kbuf alloc stays in bounds" `Quick test_kbuf_bounds;
    Alcotest.test_case "kbuf free/realloc round trip" `Quick
      test_kbuf_free_realloc_round_trip;
    Alcotest.test_case "kbuf recycle on exhaustion" `Quick
      test_kbuf_recycle_on_exhaustion;
    Alcotest.test_case "reply port reused across calls" `Quick
      test_reply_port_reuse;
    Alcotest.test_case "reply cache invalidated on death" `Quick
      test_reply_port_invalidation_on_death;
    Alcotest.test_case "10k-call soak keeps buffers bounded" `Quick
      test_ipc_soak_buffers_bounded;
    Alcotest.test_case "block-cache LRU order" `Quick test_lru_eviction_order;
    Alcotest.test_case "block-cache dirty writeback" `Quick
      test_lru_dirty_writeback;
    Alcotest.test_case "store penalty not truncated" `Quick
      test_store_penalty_not_truncated;
    Alcotest.test_case "ipc-stress smoke + JSON" `Quick test_ipc_stress_smoke;
    Alcotest.test_case "ncpus=1 numbers byte-identical to pre-SMP" `Slow
      test_ncpus1_numbers_unchanged;
  ]
