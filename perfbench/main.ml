(* The repository benchmark: one workload, one seed, one run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics: it repeats set-up plus the
   workload's fixed, seeded simulated work until S host seconds have
   passed (at least [min_reps] times), reports simulated metrics from
   the first repetition — every repetition must reproduce them byte for
   byte — and set-up time as a median.

   --trace 1 gives the per-layer metrics: an untraced and a traced
   repetition (whose simulated metrics must be identical; the host-time
   difference is the tracing overhead), one under Machcheck (which must
   report no finding), the peeled replay of the file workloads, and the
   known-bad cases that prove the gates can trip.  It writes the spans as
   Chrome trace-event JSON.

   Both modes write a result file carrying schema_version and run
   provenance to perfbench/out and print, as the last line
   of standard output, one JSON object: correct, attempted, failed and
   the metrics. *)

type workload = Closed of Closed.workload | Net

let workloads =
  [ ("os2-hot", Closed Closed.Os2_hot); ("jfs-churn", Closed Closed.Jfs_churn);
    ("net-open", Net) ]

let min_reps = 3
let schema_version = 1

let end_to_end_units =
  [ ("ops_per_mcycle", "ops/Mcycle"); ("p50_cycles", "cycles"); ("p99_cycles", "cycles");
    ("p99_cycles_peak", "cycles"); ("max_ok_rate", "ops/Mcycle"); ("setup_s", "s");
    ("host_heap_mb", "MiB") ]

let per_layer_units =
  [ ("os2.cycles_per_op", "cycles/op"); ("os2.self_cycles_per_op", "cycles/op");
    ("mach.rpc_null_cycles", "cycles/op"); ("file_server.self_cycles_per_op", "cycles/op");
    ("vfs.self_cycles_per_op", "cycles/op"); ("block_cache.self_cycles_per_op", "cycles/op");
    ("file_server.requests_per_op", "count/op"); ("mach.as_switches_per_op", "count/op");
    ("mach.ctx_switches_per_op", "count/op"); ("machine.icache_misses_per_op", "count/op");
    ("machine.tlb_misses_per_op", "count/op"); ("machine.cpi", "cycles/instr");
    ("machine.busiest_cpu_instr_share", "ratio");
    ("machine.bus_stall_cycles_per_op", "cycles/op");
    ("machine.coherence_misses_per_op", "count/op"); ("mach.ipis_per_op", "count/op");
    ("mach.xmsgs_per_op", "count/op"); ("mach.steals_per_op", "count/op");
    ("vfs.ncache_hit_ratio", "ratio"); ("vfs.ncache_invalidations_per_op", "count/op");
    ("block_cache.hit_ratio", "ratio"); ("block_cache.writebacks_per_op", "count/op");
    ("journal.records_per_op", "count/op"); ("machine.disk_requests_per_op", "count/op");
    ("netserver.pkts_per_batch", "pkts/batch"); ("netserver.shard_fairness", "ratio");
    ("netserver.ring_wait_p99_cycles", "cycles"); ("finegrain.vcalls_per_pkt", "count/pkt");
    ("host.ns_per_op.os2", "ns/op"); ("host.ns_per_op.file_server", "ns/op");
    ("host.ns_per_op.vnode", "ns/op"); ("host.ns_per_op.block_cache", "ns/op");
    ("host.ops_per_s", "ops/s");
    ("host.minor_words_per_op", "words/op"); ("mach.kbuf_recycle_ratio", "ratio");
    ("bench.gen_lag_p99_cycles", "cycles"); ("bench.backlog_end", "pkts");
    ("bench.trace_overhead_s", "s"); ("bench.machcheck_findings", "count") ]

(* --- one repetition ----------------------------------------------------------- *)

type rep = {
  host_s : float;  (* measured phases only *)
  ops : int;  (* simulated ops in the measured phases *)
  attempted : int;
  failed : int;
  e2e : (string * float option) list;  (* simulated; None = null percentile *)
  layers : (string * float) list;  (* simulated per-layer counters *)
  detail : string;  (* simulated detail, JSON *)
  minor_words_per_op : float;
  log : Closed.op list;  (* client 0's main-phase op stream *)
}

let cycles (p : Stats.pct) = Option.map float_of_int p.Stats.value
let value p = Option.value ~default:nan (cycles p)

let rep_closed wl ~seed ~tr =
  let env = Closed.setup ~wl ~seed () in
  env.Closed.tr <- tr;
  let r = Closed.measure env in
  let limit = Closed.p99_limit wl in
  let step (ph : Closed.phase) =
    let p50 = Stats.percentile ph.Closed.lat 0.5 in
    let p99 = Stats.percentile ph.Closed.lat 0.99 in
    let ok =
      match p99.Stats.value with Some v -> v <= limit && ph.Closed.failed = 0 | None -> false
    in
    (p50, p99, ok, Closed.throughput ph)
  in
  let main = r.Closed.main and peak = r.Closed.peak in
  let ((m50, m99, _, mthr) as main_step) = step main in
  let ((_, k99, _, _) as peak_step) = step peak in
  let max_ok =
    List.fold_left
      (fun m (_, _, ok, thr) -> if ok then max m thr else m)
      0.0 [ main_step; peak_step ]
  in
  let before = Option.get main.Closed.before and after = Option.get main.Closed.after in
  let step_json (ph : Closed.phase) (p50, p99, ok, thr) =
    Stats.jobj
      [ ("clients", Stats.jint ph.Closed.clients); ("ops", Stats.jint ph.Closed.ops);
        ("failed", Stats.jint ph.Closed.failed); ("wall_cycles", Stats.jint ph.Closed.wall);
        ("ops_per_mcycle", Stats.jfloat thr); ("p50_cycles", Stats.jpct p50);
        ("p99_cycles", Stats.jpct p99); ("ok", string_of_bool ok) ]
  in
  let attempted = main.Closed.ops + peak.Closed.ops + r.Closed.checks in
  let failed = main.Closed.failed + peak.Closed.failed + r.Closed.bad_checks in
  {
    host_s = r.Closed.host_s;
    ops = main.Closed.ops + peak.Closed.ops;
    attempted;
    failed;
    e2e =
      [ ("ops_per_mcycle", Some mthr); ("p50_cycles", cycles m50); ("p99_cycles", cycles m99);
        ("p99_cycles_peak", cycles k99); ("max_ok_rate", Some max_ok) ];
    layers = Stack.layer_counters ~ops:main.Closed.ops before after;
    detail =
      Stats.jobj
        [ ("p99_limit_cycles", Stats.jint limit);
          ( "ladder",
            "[ " ^ step_json main main_step ^ ", " ^ step_json peak peak_step ^ " ]" );
          ("readback_checks", Stats.jint r.Closed.checks);
          ("readback_failures", Stats.jint r.Closed.bad_checks);
          ("error_rate", Stats.jopt Stats.jfloat (Stats.error_rate ~attempted ~failed)) ];
    minor_words_per_op = Stack.minor_words_per_op ~ops:main.Closed.ops before after;
    log = List.rev main.Closed.log;
  }

let rep_net ~seed ~tr =
  let env = Net.setup ~seed () in
  env.Net.tr <- tr;
  let r = Net.measure env in
  let mid = Net.step_at r Net.mid and peak = Net.step_at r Net.peak in
  let top = Net.step_at r Net.top in
  let lat s = Stats.percentile (Net.latencies s) in
  let max_ok =
    List.fold_left (fun acc s -> if Net.ok s then max acc s.Net.rate else acc) 0.0 r.Net.steps
  in
  let step_json (s : Net.step) =
    Stats.jobj
      [ ("offered_frac", Stats.jfloat s.Net.frac); ("offered_rate", Stats.jfloat s.Net.rate);
        ("packets", Stats.jint s.Net.n); ("delivered", Stats.jint (Net.delivered s));
        ("failed", Stats.jint (Net.failed s)); ("wall_cycles", Stats.jint s.Net.wall);
        ("delivered_rate", Stats.jfloat (Net.throughput s));
        ("p50_cycles", Stats.jpct (lat s 0.5)); ("p99_cycles", Stats.jpct (lat s 0.99));
        ("gen_lag_p50_cycles", Stats.jpct (Stats.percentile (Net.lags s) 0.5));
        ("gen_lag_p99_cycles", Stats.jpct (Stats.percentile (Net.lags s) 0.99));
        ("backlog_end", Stats.jint (Net.backlog_end s)); ("ok", string_of_bool (Net.ok s)) ]
  in
  let attempted = List.fold_left (fun acc s -> acc + s.Net.n) 0 r.Net.steps in
  let failed =
    env.Net.strays + List.fold_left (fun acc s -> acc + Net.failed s) 0 r.Net.steps
  in
  let before = Option.get mid.Net.before and after = Option.get mid.Net.after in
  let ops = Net.delivered mid in
  {
    host_s = r.Net.host_s;
    ops = List.fold_left (fun acc s -> acc + Net.delivered s) 0 r.Net.steps;
    attempted;
    failed;
    e2e =
      [ ("ops_per_mcycle", Some (Net.throughput top)); ("p50_cycles", cycles (lat mid 0.5));
        ("p99_cycles", cycles (lat mid 0.99)); ("p99_cycles_peak", cycles (lat peak 0.99));
        ("max_ok_rate", Some max_ok) ];
    layers =
      Stack.layer_counters ~ops before after
      @ [ ("netserver.ring_wait_p99_cycles", value (Stats.percentile mid.Net.ring 0.99));
          ("bench.gen_lag_p99_cycles", value (Stats.percentile (Net.lags mid) 0.99));
          ("bench.backlog_end", float_of_int (Net.backlog_end mid)) ];
    detail =
      Stats.jobj
        [ ("capacity", Stats.jfloat Net.capacity); ("p99_limit_cycles", Stats.jint Net.p99_limit);
          ("backlog_limit", Stats.jint Net.backlog_limit);
          ("ladder", "[ " ^ String.concat ", " (List.map step_json r.Net.steps) ^ " ]");
          ("strays", Stats.jint env.Net.strays);
          ("error_rate", Stats.jopt Stats.jfloat (Stats.error_rate ~attempted ~failed)) ];
    minor_words_per_op = Stack.minor_words_per_op ~ops before after;
    log = [];
  }

let run_rep wl ~seed ~tr =
  match wl with Closed w -> rep_closed w ~seed ~tr | Net -> rep_net ~seed ~tr

(* Every simulated number of a repetition, as one string: two runs of the
   same seed must produce it byte for byte. *)
let fingerprint r =
  String.concat ";"
    (List.map (fun (k, v) -> k ^ "=" ^ Stats.jopt Stats.jfloat v) r.e2e
    @ List.map (fun (k, v) -> k ^ "=" ^ Stats.jfloat v) r.layers
    @ [ r.detail; string_of_int r.attempted; string_of_int r.failed ])

let sim_complete r = List.for_all (fun (_, v) -> v <> None) r.e2e

(* --- known-bad cases ----------------------------------------------------------- *)

(* Each gate must trip on a case built to fail it: a run too small to
   have ten samples beyond its percentiles reads null and counts toward
   no rate, an empty run has a null error rate, and an overload step
   that no plausible speedup could drain is excluded from max_ok_rate. *)
let gates_trip wl ~seed =
  let known_bad_excluded =
    match wl with
    | Closed w ->
        let env = Closed.setup ~wl:w ~seed () in
        let ph = Closed.run_phase env ~tag:9 ~clients:1 ~sessions:1 in
        (Stats.percentile ph.Closed.lat 0.5).Stats.value = None
        && (Stats.percentile ph.Closed.lat 0.99).Stats.value = None
    | Net ->
        let env = Net.setup ~seed () in
        let tiny = Net.run_step env ~frac:Net.mid ~n:5 ~tag:9 in
        let over =
          Net.run_step env ~frac:Net.overload ~n:(Net.packets Net.overload) ~tag:10
        in
        (not (Net.ok tiny)) && not (Net.ok over)
  in
  known_bad_excluded && Stats.error_rate ~attempted:0 ~failed:0 = None

(* --- output ------------------------------------------------------------------------ *)

let metric_json units values =
  "{ "
  ^ String.concat ", "
      (List.map
         (fun (name, unit) ->
           let v = Option.value ~default:0.0 (List.assoc_opt name values) in
           Printf.sprintf "%S: { \"value\": %s, \"unit\": %S }" name (Stats.jfloat v) unit)
         units)
  ^ " }"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let result_json ~name ~seed ~trace ~correct ~attempted ~failed ~metrics ~detail =
  Printf.sprintf
    "{\n  \"experiment\": \"perfbench-%s\",\n  \"schema_version\": %d,\n  \"run\": %s,\n  \
     \"trace\": %d,\n  \"correct\": %b,\n  \"attempted\": %d,\n  \"failed\": %d,\n  \
     \"metrics\": %s,\n  \"detail\": %s\n}\n"
    name schema_version (Run_meta.json ~seed ()) trace correct attempted failed metrics detail

let last_line ~correct ~attempted ~failed ~metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct attempted failed metrics

let e2e_values r = List.map (fun (k, v) -> (k, Option.value ~default:nan v)) r.e2e

(* --- the two modes ----------------------------------------------------------------- *)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* A fixed host workload that uses none of the repository's code:
   random updates to a 16 MiB array.  On a shared machine the host's
   speed for set-up drifts by half over minutes, with the memory traffic
   of other processes; CPU-bound work hardly moves.  This workload's CPU
   time tracks set-up's: over 30 runs, the quartile distance of set-up
   time was 44% of its median, and 4% once divided by it. *)
let reference_work () =
  let n = 2_000_000 in
  let a = Array.make n 0 in
  let rng = Random.State.make [| 1 |] in
  for i = 1 to n do
    let j = Random.State.int rng n in
    a.(j) <- a.(j) + i
  done;
  ignore (Sys.opaque_identity a : int array)

(* [reference_work]'s CPU time on a quiet host (seconds): set-up times
   are reported as if measured at that speed. *)
let reference_s = 0.08

let setup_samples = 25

(* Set-up time, corrected for the host's speed: set-ups alternate with
   the reference workload, each set-up's CPU time is scaled by
   [reference_s] over the adjacent reference time, and the median of the
   scaled times is reported.  Work a change moves into set-up still
   shows; the host getting slower does not.  Also returns the raw
   medians. *)
let timed_setups wl ~seed =
  let one () =
    let _, ref_s = Trace.cpu_timed reference_work in
    let _, s =
      Trace.cpu_timed (fun () ->
          match wl with
          | Closed w -> ignore (Closed.setup ~wl:w ~seed () : Closed.env)
          | Net -> ignore (Net.setup ~seed () : Net.env))
    in
    (s, ref_s)
  in
  let samples = List.init setup_samples (fun _ -> one ()) in
  ( Stats.median (List.map (fun (s, r) -> s /. r *. reference_s) samples),
    Stats.median (List.map fst samples),
    Stats.median (List.map snd samples) )

let out = Filename.concat "perfbench" "out"

let run_untraced ~name wl ~seed ~seconds =
  let t0 = Unix.gettimeofday () in
  let first = run_rep wl ~seed ~tr:None in
  (* the heap one repetition needs, before later ones add to it *)
  let heap = heap_mb () in
  let rec loop acc =
    if List.length acc < min_reps || Unix.gettimeofday () -. t0 < float_of_int seconds then
      loop (run_rep wl ~seed ~tr:None :: acc)
    else List.rev acc
  in
  let reps = loop [ first ] in
  let setup_s, setup_raw_s, ref_s = timed_setups wl ~seed in
  let deterministic = List.for_all (fun r -> fingerprint r = fingerprint first) reps in
  let attempted = List.fold_left (fun acc r -> acc + r.attempted) 0 reps in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 reps in
  let host = [ ("setup_s", setup_s); ("host_heap_mb", heap) ] in
  let correct = deterministic && failed = 0 && sim_complete first in
  let metrics = metric_json end_to_end_units (e2e_values first @ host) in
  let detail =
    Stats.jobj
      [ ("reps", Stats.jint (List.length reps)); ("deterministic", string_of_bool deterministic);
        ("setup_raw_s", Stats.jfloat setup_raw_s); ("reference_s", Stats.jfloat ref_s);
        ("sim", first.detail) ]
  in
  mkdir_p out;
  write_file
    (Filename.concat out (Printf.sprintf "%s-seed%d-trace0.json" name seed))
    (result_json ~name ~seed ~trace:0 ~correct ~attempted ~failed ~metrics ~detail);
  last_line ~correct ~attempted ~failed ~metrics

let run_traced ~name wl ~seed =
  let plain = run_rep wl ~seed ~tr:None in
  let tr = Trace.create () in
  let traced = run_rep wl ~seed ~tr:(Some tr) in
  let identical = fingerprint plain = fingerprint traced in
  let chk = Check.create () in
  Check.install chk;
  let findings =
    Fun.protect ~finally:Check.uninstall (fun () ->
        ignore (run_rep wl ~seed ~tr:None : rep);
        Check.total_findings (Check.report chk))
  in
  let peel_sim, peel_host =
    match wl with Closed w -> Peel.run ~wl:w ~seed plain.log | Net -> ([], [])
  in
  let trips = gates_trip wl ~seed in
  let values =
    plain.layers @ peel_sim @ peel_host
    @ [ ("host.minor_words_per_op", plain.minor_words_per_op);
        ("host.ops_per_s", float_of_int plain.ops /. plain.host_s);
        ("bench.trace_overhead_s", traced.host_s -. plain.host_s);
        ("bench.machcheck_findings", float_of_int findings) ]
  in
  (* Machcheck findings are reported, not folded into [correct]: they
     are design findings about the program, while [correct] says whether
     its outputs were right. *)
  let correct = identical && trips && plain.failed = 0 && sim_complete plain in
  let metrics = metric_json per_layer_units values in
  let detail =
    Stats.jobj
      [ ("traced_equals_untraced", string_of_bool identical);
        ("spans", Stats.jint (List.length tr.Trace.spans));
        ("gates_trip", string_of_bool trips); ("sim", plain.detail) ]
  in
  mkdir_p out;
  let meta = Run_meta.json ~seed () in
  Trace.write_chrome tr
    ~path:(Filename.concat out (Printf.sprintf "%s-seed%d.trace.json" name seed))
    ~meta;
  write_file
    (Filename.concat out (Printf.sprintf "%s-seed%d-trace1.json" name seed))
    (result_json ~name ~seed ~trace:1 ~correct ~attempted:plain.attempted
       ~failed:plain.failed ~metrics ~detail);
  last_line ~correct ~attempted:plain.attempted ~failed:plain.failed ~metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME os2-hot | jfs-churn | net-open");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)") ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "unknown workload %S (expected %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some wl -> (
      let name = !workload in
      match !trace with
      | 0 -> run_untraced ~name wl ~seed:!seed ~seconds:!seconds
      | 1 -> run_traced ~name wl ~seed:!seed
      | t ->
          Printf.eprintf "--trace must be 0 or 1, not %d\n" t;
          exit 2)
