(* Tests for the workload layer: the API adapters drive both systems and
   the microbenchmarks land in the paper's bands. *)

let test_api_parity_monolithic () =
  let m = Machine.create Machine.Config.pentium_133 in
  let api = Workloads.Api.of_monolithic (Monolithic.boot m ~fs_format:`Hpfs ()) in
  let read_back = ref (-1) in
  api.Workloads.Api.spawn ~name:"t" (fun api ->
      let open Workloads.Api in
      match api.f_open ~path:"/c/x" ~create:true with
      | Error e -> Alcotest.fail e
      | Ok h ->
          ignore (h.write ~bytes:100);
          h.seek ~pos:0;
          read_back := h.read ~bytes:100;
          h.close ();
          let a = api.alloc ~bytes:4096 in
          api.touch ~addr:a ~write:true ~bytes:4096;
          api.compute ~units:4;
          api.draw ~x:1 ~y:1 ~w:4 ~h:4);
  api.Workloads.Api.go ();
  Alcotest.(check int) "file ops work" 100 !read_back

let test_api_parity_wpos () =
  let w = Wpos.boot ~config:{ Wpos.default_config with Wpos.with_mvm = false;
                              Wpos.fs_blocks = 2048 } () in
  let api = Workloads.Api.of_wpos w in
  let read_back = ref (-1) in
  api.Workloads.Api.spawn ~name:"t" (fun api ->
      let open Workloads.Api in
      match api.f_open ~path:"/os2/x" ~create:true with
      | Error e -> Alcotest.fail e
      | Ok h ->
          ignore (h.write ~bytes:100);
          h.seek ~pos:0;
          read_back := h.read ~bytes:100;
          h.close ();
          let a = api.alloc ~bytes:4096 in
          api.touch ~addr:a ~write:true ~bytes:4096;
          api.compute ~units:4;
          api.draw ~x:1 ~y:1 ~w:4 ~h:4);
  api.Workloads.Api.go ();
  Alcotest.(check int) "file ops work" 100 !read_back

let test_queues_ping_pong () =
  let m = Machine.create Machine.Config.pentium_133 in
  let api = Workloads.Api.of_monolithic (Monolithic.boot m ~fs_format:`Hpfs ()) in
  let got = ref 0 in
  let q1 = ref None in
  api.Workloads.Api.spawn ~name:"a" (fun api ->
      let open Workloads.Api in
      let q = api.make_queue ~name:"a" in
      q1 := Some q;
      got := q.wait ());
  api.Workloads.Api.spawn ~name:"b" (fun api ->
      let open Workloads.Api in
      let rec wait () =
        match !q1 with
        | Some q -> q.post 17
        | None ->
            api.yield ();
            wait ()
      in
      wait ());
  api.Workloads.Api.go ();
  Alcotest.(check int) "message arrived" 17 !got

let test_table1_specs_complete () =
  Alcotest.(check int) "seven rows" 7 (List.length Workloads.Table1.all);
  List.iter
    (fun (s : Workloads.Table1.spec) ->
      Alcotest.(check bool)
        (s.Workloads.Table1.id ^ " findable")
        true
        (Workloads.Table1.find s.Workloads.Table1.id <> None))
    Workloads.Table1.all

let test_table2_bands () =
  let trap, rpc = Workloads.Micro.table2 ~iters:500 () in
  let open Workloads.Micro in
  (* the paper's ratios, within tolerance *)
  let r_inst = rpc.t2_instructions /. trap.t2_instructions in
  let r_cyc = rpc.t2_cycles /. trap.t2_cycles in
  let r_cpi = rpc.t2_cpi /. trap.t2_cpi in
  Alcotest.(check bool) "instruction ratio ~2.8" true
    (r_inst > 2.3 && r_inst < 3.4);
  Alcotest.(check bool) "cycle ratio ~5.3" true (r_cyc > 4.0 && r_cyc < 6.5);
  Alcotest.(check bool) "CPI ratio ~1.95" true (r_cpi > 1.5 && r_cpi < 2.4);
  Alcotest.(check bool) "trap CPI ~2" true
    (trap.t2_cpi > 1.7 && trap.t2_cpi < 2.4);
  (* the RPC's extra CPI is I-cache misses *)
  Alcotest.(check bool) "RPC I-cache misses/op exceed the trap's" true
    (rpc.t2_icache_misses > trap.t2_icache_misses)

(* E3 is ipc-stress's mach_msg / copying-RPC column *)
let test_ipc_sweep_band () =
  let r =
    Workloads.Ipc_stress.run ~workers:1 ~iters:100 ~sizes:[ 0; 4096; 65536 ] ()
  in
  let points = Workloads.Ipc_stress.improvement r in
  List.iter
    (fun (bytes, x) ->
      Alcotest.(check bool)
        (Printf.sprintf "improvement at %d bytes within 2-10x (got %.2f)" bytes x)
        true
        (x >= 2.0 && x <= 10.0))
    points;
  (* magnitude depends on bytes: the small and large ends differ *)
  match points with
  | [ (_, small); _; (_, large) ] ->
      Alcotest.(check bool) "size-dependent" true (small > large +. 1.0)
  | _ -> Alcotest.fail "unexpected sweep shape"

module E = Workloads.Experiment
module J = Bench_json

(* The document minus provenance and host-clock leaves: what must repeat
   bit for bit. *)
let rec simulated = function
  | J.Obj fs ->
      J.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "run" || k = "host_ns_per_op" then None
             else Some (k, simulated v))
           fs)
  | J.Arr xs -> J.Arr (List.map simulated xs)
  | v -> v

let test_table_deterministic () =
  List.iter
    (fun (e : E.t) ->
      let doc o = J.to_string (simulated (E.document e o)) in
      let a = e.run E.Smoke and b = e.run E.Smoke in
      Alcotest.(check string) (e.name ^ ": two runs agree") (doc a) (doc b);
      let off = e.run ~checks:false E.Smoke in
      Alcotest.(check bool) (e.name ^ ": checks off has no report") true
        (off.E.check = None);
      Alcotest.(check string)
        (e.name ^ ": checks off is the same minus machcheck")
        (doc { a with E.check = None })
        (doc off))
    E.all

let baseline name =
  let ic = open_in_bin (Filename.concat "../bench/baseline" name) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Scale the first numeric leaf called [key] by [factor]. *)
let perturb ~key ~factor text =
  let hit = ref false in
  let rec go = function
    | J.Obj fs ->
        J.Obj
          (List.map
             (fun (k, v) ->
               match v with
               | J.Num x when k = key && not !hit ->
                   hit := true;
                   (k, J.Num (x *. factor))
               | v -> (k, go v))
             fs)
    | J.Arr xs -> J.Arr (List.map go xs)
    | v -> v
  in
  match J.parse text with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      let doc = go doc in
      Alcotest.(check bool) (key ^ " found") true !hit;
      J.to_string doc

(* Known-bad cases for the baseline gate: a 5% cycle rise, a 5%
   completion drop and a 5% availability drop must each be flagged,
   once, at threshold 0. *)
let test_ab_flags_regressions () =
  List.iter
    (fun (file, key, factor) ->
      let a = baseline file in
      let b = perturb ~key ~factor a in
      match Workloads.Bench_ab.compare_json ~a ~b ~threshold:0.0 with
      | Error e -> Alcotest.fail e
      | Ok v ->
          Alcotest.(check int) (key ^ " regression flagged") 1
            v.Workloads.Bench_ab.v_regressions;
          Alcotest.(check int) "nothing else moved" 1
            (List.length v.Workloads.Bench_ab.v_deltas))
    [ ("BENCH_ipc.json", "sim_cycles_per_op", 1.05);
      ("BENCH_storm.json", "completed", 0.95);
      ("BENCH_storm.json", "availability_in", 0.95) ];
  (* over two directories, every regressed file is reported, and a file
     with no counterpart is an error *)
  let write_dir files =
    let dir = Filename.temp_dir "bench-ab" "" in
    List.iter
      (fun (name, text) ->
        Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
            output_string oc text))
      files;
    dir
  in
  let names = [ "BENCH_ipc.json"; "BENCH_recovery.json"; "BENCH_vfs.json" ] in
  let a = write_dir (List.map (fun n -> (n, baseline n)) names) in
  let b =
    write_dir
      [ ("BENCH_ipc.json",
         perturb ~key:"sim_cycles_per_op" ~factor:1.05 (baseline "BENCH_ipc.json"));
        (* +0.03%: must not print as 0.0% *)
        ("BENCH_recovery.json",
         perturb ~key:"recovery_cycles" ~factor:1.0003
           (baseline "BENCH_recovery.json"));
        ("BENCH_vfs.json", baseline "BENCH_vfs.json") ]
  in
  let regressions results =
    List.map
      (fun (name, r) ->
        match r with
        | Ok v -> (name, v.Workloads.Bench_ab.v_regressions)
        | Error e -> Alcotest.fail e)
      results
  in
  let results = Workloads.Bench_ab.compare_dirs ~a ~b ~threshold:0.0 in
  Alcotest.(check (list (pair string int))) "both regressed files reported"
    [ ("BENCH_ipc.json", 1); ("BENCH_recovery.json", 1); ("BENCH_vfs.json", 0) ]
    (regressions results);
  (match List.assoc "BENCH_recovery.json" results with
  | Ok v ->
      let flagged =
        String.split_on_char '\n'
          (Format.asprintf "%a" Workloads.Bench_ab.pp_verdict v)
        |> List.filter (fun l -> Test_util.contains l "REGRESSION")
      in
      Alcotest.(check int) "one flagged line" 1 (List.length flagged);
      Alcotest.(check bool) "a small regression does not read 0.0%" false
        (Test_util.contains (List.hd flagged) " 0.0%")
  | Error e -> Alcotest.fail e);
  Sys.remove (Filename.concat b "BENCH_vfs.json");
  let missing =
    List.assoc "BENCH_vfs.json"
      (Workloads.Bench_ab.compare_dirs ~a ~b ~threshold:0.0)
  in
  List.iter
    (fun dir ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    [ a; b ];
  Alcotest.(check bool) "a missing counterpart is an error" true
    (Result.is_error missing)

let suite =
  [
    Alcotest.test_case "api parity: monolithic" `Quick test_api_parity_monolithic;
    Alcotest.test_case "api parity: wpos" `Quick test_api_parity_wpos;
    Alcotest.test_case "queues ping-pong" `Quick test_queues_ping_pong;
    Alcotest.test_case "table1 specs complete" `Quick test_table1_specs_complete;
    Alcotest.test_case "table2 in paper bands" `Slow test_table2_bands;
    Alcotest.test_case "ipc sweep in paper band" `Slow test_ipc_sweep_band;
    Alcotest.test_case "experiment table deterministic, checks inert" `Slow
      test_table_deterministic;
    Alcotest.test_case "bench ab flags seeded regressions" `Quick
      test_ab_flags_regressions;
  ]
