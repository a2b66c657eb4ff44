(* The net-storm experiment: a C1M-flavoured traffic generator against
   the netisr-sharded netserver, swept over 1/2/4/8 CPUs.

   Five phases, each booting a fresh machine per (phase, ncpus) point:

   - [steady]: an external traffic generator on the event timeline
     impersonates tens of thousands of clients (distinct source ports)
     and blasts datagrams uniformly over the bound endpoints in
     closed-loop bursty rounds — the packets/sec scaling anchor
     (acceptance: >= 2.5x at 4 CPUs).
   - [skew]: the same engine with Zipf(~1.0) heavy-hitter endpoint
     selection — a handful of ports absorb most of the traffic, and the
     per-shard occupancy fairness (max/mean) plus the p50/p99 delivery
     latency show what steering does under skew.
   - [churn]: full TCP open/echo/close sessions through the cross-shard
     accept protocol — the connections/sec number.
   - [synflood]: a SYN storm at a small-backlog listener (backpressure,
     not state explosion) while UDP victims complete acknowledged
     request/reply operations over a lossy wire (Mach.Fault drop rates)
     with bounded retries — acceptance: zero lost acknowledged ops.
   - [slowloris]: waves of half-open connections pinning listener
     children while a periodic reaper closes stale embryos and TCP
     victims keep completing echo sessions through the same listener.

   All randomness is a seeded LCG: every number is deterministic. *)

open Mach.Ktypes
open Rig

type point = {
  np_phase : string;
  np_ncpus : int;
  np_clients : int;  (* distinct simulated client source ports *)
  np_ops : int;  (* packets delivered, or sessions completed *)
  np_wall_cycles : int;
  np_throughput : float;  (* ops per million cycles of wall clock *)
  np_speedup : float;  (* vs the 1-CPU point of the same phase *)
  np_conns : int;  (* TCP connections opened *)
  np_p50_cycles : int;  (* wire->socket delivery latency *)
  np_p99_cycles : int;
  np_fairness : float;  (* per-shard occupancy max/mean (1.0 = perfect) *)
  np_syn_drops : int;
  np_wire_drops : int;
  np_reaped : int;
  np_half_open_peak : int;
  np_retries : int;
  np_lost_acked : int;  (* acked ops that never completed: must be 0 *)
  np_xshard_msgs : int;  (* registry messages + cross-shard accepts *)
}

type result = {
  nr_cpus : int list;
  nr_endpoints : int;
  nr_clients : int;
  nr_packets : int;
  nr_bytes : int;
  nr_sessions : int;
  nr_flood_syns : int;
  nr_points : point list;
}

(* --- deterministic randomness -------------------------------------------- *)

let lcg_float s = float_of_int s /. float_of_int 0x40000000

(* Zipf(alpha) over [0, n): cumulative distribution, linear probe. *)
let zipf_cdf ~n ~alpha =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** alpha)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun wi ->
      acc := !acc +. (wi /. total);
      !acc)
    w

let zipf_pick cdf u =
  let n = Array.length cdf in
  let rec go i = if i >= n - 1 || cdf.(i) >= u then i else go (i + 1) in
  go 0

(* --- latency collection --------------------------------------------------- *)

type lat = { mutable ls : int list; mutable n : int }

let lat_create () = { ls = []; n = 0 }

let lat_note l x =
  l.ls <- x :: l.ls;
  l.n <- l.n + 1

let percentile l p =
  if l.n = 0 then 0
  else begin
    let a = Array.of_list l.ls in
    Array.sort compare a;
    a.(min (l.n - 1) (int_of_float (p *. float_of_int l.n)))
  end

(* One collector per shard.  Percentiles are reported for the busiest
   shard: the tail gate asks "does the heavy-hitter shard's own service
   degrade nonlinearly under load?"  Cross-shard load imbalance is a
   separate number (occupancy fairness), not smeared into the latency
   distribution. *)
let lats_create net =
  Array.init (Netserver.shard_count net) (fun _ -> lat_create ())

let lats_note ls s x = lat_note ls.(s) x
let busiest ls = Array.fold_left (fun b l -> if l.n > b.n then l else b) ls.(0) ls

(* --- shared plumbing ------------------------------------------------------ *)

let fairness net =
  let d = Netserver.shard_delivered net in
  let sum = Array.fold_left ( + ) 0 d in
  if sum = 0 || Array.length d = 0 then 1.0
  else
    let mean = float_of_int sum /. float_of_int (Array.length d) in
    float_of_int (Array.fold_left max 0 d) /. mean

let finish ~phase ~ncpus ~clients ~ops ~conns ~lat ~retries ~lost
    ~half_open_peak m net =
  let wall = Machine.global_now m in
  {
    np_phase = phase;
    np_ncpus = ncpus;
    np_clients = clients;
    np_ops = ops;
    np_wall_cycles = wall;
    np_throughput =
      (if wall = 0 then 0.0 else float_of_int ops /. float_of_int wall *. 1e6);
    np_speedup = 0.0;  (* filled in once the 1-CPU anchor is known *)
    np_conns = conns;
    np_p50_cycles = percentile (busiest lat) 0.50;
    np_p99_cycles = percentile (busiest lat) 0.99;
    np_fairness = fairness net;
    np_syn_drops = Netserver.syn_drops net;
    np_wire_drops = Netserver.wire_drops net;
    np_reaped = Netserver.reaped_half_open net;
    np_half_open_peak = half_open_peak;
    np_retries = retries;
    np_lost_acked = lost;
    np_xshard_msgs =
      Netserver.registry_messages net + Netserver.cross_shard_accepts net;
  }

(* --- steady / skew: the datagram firehose -------------------------------- *)

(* The traffic generator is an external client population, so it lives
   on the machine's event timeline, not on a server CPU: every cycle of
   every CPU belongs to the stack under test, the way a C1M box faces a
   dedicated load generator across a real wire.

   Injection is windowed and closed-loop: each round offers one burst
   per lane (a lane is one generator queue's worth of clients), then
   the generator polls until the stack has drained the round completely
   before offering the next — the pacing a benchmark harness applies so
   offered load tracks the server's capacity instead of growing queues
   without bound.  One round's packets share a wire-arrival instant, so
   a shard's rx ring fills to that round's share and drains to empty:
   under Zipf skew the heavy hitter's ring is deeper every round
   (latency grows linearly with its share, fairness drops), but depth —
   and therefore the p99/p50 tail — stays bounded by a single round. *)
let burst_window = 48
let poll_gap = 4_000  (* cycles between the generator's drain polls *)

let measure_firehose ~phase ~ncpus ~endpoints ~clients ~packets ~bytes ~zipf =
  let m = Machine.create (config ~ncpus) in
  let k = Mach.Kernel.boot m in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  let lat = lats_create net in
  Netserver.set_delivery_probe net (lats_note lat);
  let task = Mach.Kernel.task_create k ~name:"storm" () in
  let cdf = zipf_cdf ~n:endpoints ~alpha:1.0 in
  let per_lane = packets / ncpus in
  let seeds = Array.init ncpus (fun lane -> lcg ((lane * 7919) + 17)) in
  let sent = Array.make ncpus 0 in
  let injected = ref 0 in
  let schedule at f = Machine.Event_queue.schedule m.Machine.events ~at f in
  let rec generator () =
    if Netserver.packets_processed net < !injected then
      (* the previous round is still draining: poll again *)
      schedule (Machine.now m + poll_gap) generator
    else if !injected < per_lane * ncpus then begin
      for lane = 0 to ncpus - 1 do
        let n = min burst_window (per_lane - sent.(lane)) in
        for _ = 1 to n do
          seeds.(lane) <- lcg seeds.(lane);
          let dst =
            if zipf then zipf_pick cdf (lcg_float seeds.(lane))
            else seeds.(lane) mod endpoints
          in
          sent.(lane) <- sent.(lane) + 1;
          let src = 10_000 + (((lane * per_lane) + sent.(lane)) mod clients) in
          Netserver.inject_udp net ~src_port:src ~dst_port:(100 + dst) ~bytes;
          incr injected
        done
      done;
      schedule (Machine.now m + poll_gap) generator
    end
    (* else: offered load exhausted and drained — the generator retires *)
  in
  spawn_on k task "bind" ~cpu:0 (fun () ->
      for i = 0 to endpoints - 1 do
        match Netserver.udp_socket net ~port:(100 + i) with
        | Error e -> failwith e
        | Ok _ -> ()
      done;
      schedule (Machine.now m + poll_gap) generator);
  Mach.Kernel.run k;
  let delivered = Array.fold_left ( + ) 0 (Netserver.shard_delivered net) in
  Netserver.clear_delivery_probe net;
  finish ~phase ~ncpus ~clients ~ops:delivered ~conns:0 ~lat ~retries:0
    ~lost:0 ~half_open_peak:0 m net

(* --- churn: TCP open/echo/close sessions --------------------------------- *)

let measure_churn ~ncpus ~sessions =
  let m = Machine.create (config ~ncpus) in
  let k = Mach.Kernel.boot m in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  let lat = lats_create net in
  Netserver.set_delivery_probe net (lats_note lat);
  let server = Mach.Kernel.task_create k ~name:"web" () in
  let clients = Mach.Kernel.task_create k ~name:"surfers" () in
  let total = sessions * ncpus in
  spawn_on k server "acceptor" ~cpu:0 (fun () ->
      match Netserver.tcp_listen net ~port:80 with
      | Error e -> failwith e
      | Ok l ->
          for h = 1 to total do
            let c = Netserver.tcp_accept net l in
            (* one handler thread per connection, unbound: the stealer
               spreads them; the data itself steers by connection hash *)
            ignore
              (Mach.Kernel.thread_spawn k server
                 ~name:(Printf.sprintf "h%d" h)
                 (fun () ->
                   let n = Netserver.tcp_recv net c in
                   Netserver.tcp_send net c ~bytes:n;
                   Netserver.close net c)
                : thread)
          done);
  let completed = ref 0 in
  for cpu = 0 to ncpus - 1 do
    spawn_on k clients (Printf.sprintf "client%d" cpu) ~cpu (fun () ->
        for s = 1 to sessions do
          match Netserver.tcp_connect net ~dst_port:80 with
          | Error e -> failwith e
          | Ok c ->
              Netserver.tcp_send net c ~bytes:(128 + (64 * (s mod 7)));
              ignore (Netserver.tcp_recv net c : int);
              Netserver.close net c;
              incr completed
        done)
  done;
  Mach.Kernel.run k;
  if !completed <> total then
    failwith
      (Printf.sprintf "Net_storm: churn completed %d/%d sessions" !completed
         total);
  Netserver.clear_delivery_probe net;
  finish ~phase:"churn" ~ncpus ~clients:ncpus ~ops:!completed ~conns:total
    ~lat ~retries:0 ~lost:0 ~half_open_peak:0 m net

(* --- synflood: backpressure + acked UDP ops over a lossy wire ------------ *)

(* A victim operation is acknowledged only when the echo reply arrives;
   requests and replies both cross the faulty wire, so completion takes
   bounded retries.  [lost] counts ops that exhausted their budget —
   the acceptance gate requires zero. *)
let measure_synflood ~ncpus ~flood_syns ~victim_ops =
  let m = Machine.create (config ~ncpus) in
  let k = Mach.Kernel.boot m in
  let sys = k.Mach.Kernel.sys in
  let net = Netserver.create ~backlog:16 k ~style:Finegrain.Coarse in
  let plan = Mach.Fault.create ~seed:42 () in
  (* one send in eight vanishes on the wire *)
  Mach.Fault.set_rate plan ~ppm:125_000 Mach.Fault.Drop_message;
  sys.Mach.Sched.faults <- Some plan;
  let lat = lats_create net in
  Netserver.set_delivery_probe net (lats_note lat);
  let task = Mach.Kernel.task_create k ~name:"siege" () in
  let retries = ref 0 and lost = ref 0 and acked = ref 0 in
  spawn_on k task "echo" ~cpu:0 (fun () ->
      match Netserver.udp_socket net ~port:7 with
      | Error e -> failwith e
      | Ok s ->
          let rec serve () =
            let src, n = Netserver.udp_recv net s in
            Netserver.udp_send net s ~dst_port:src ~bytes:n;
            serve ()
          in
          serve ());
  spawn_on k task "target" ~cpu:0 (fun () ->
      (* the attacked listener: nobody accepts, the backlog bounds it *)
      match Netserver.tcp_listen net ~port:443 with
      | Error e -> failwith e
      | Ok _ -> ());
  spawn_on k task "attacker" ~cpu:(min 1 (ncpus - 1)) (fun () ->
      ignore (Mach.Clock.sleep_for sys ~cycles:2_000 : kern_return);
      for i = 1 to flood_syns do
        Netserver.inject_syn net ~src_port:(40_000 + i) ~dst_port:443
          ~conn:(1_000_000 + i);
        if i mod 32 = 0 then
          ignore (Mach.Clock.sleep_for sys ~cycles:10_000 : kern_return)
      done);
  for cpu = 0 to ncpus - 1 do
    spawn_on k task (Printf.sprintf "victim%d" cpu) ~cpu (fun () ->
        ignore (Mach.Clock.sleep_for sys ~cycles:2_000 : kern_return);
        match Netserver.udp_socket net ~port:(20_000 + cpu) with
        | Error e -> failwith e
        | Ok s ->
            for _ = 1 to victim_ops do
              let rec attempt budget =
                if budget = 0 then incr lost
                else begin
                  Netserver.udp_send net s ~dst_port:7 ~bytes:160;
                  if poll_reply sys net s ~polls:12 ~gap:6_000 then incr acked
                  else begin
                    incr retries;
                    attempt (budget - 1)
                  end
                end
              in
              attempt 25
            done)
  done;
  Mach.Kernel.run k;
  sys.Mach.Sched.faults <- None;
  Netserver.clear_delivery_probe net;
  if !acked + !lost <> victim_ops * ncpus then
    failwith "Net_storm: synflood op accounting is broken";
  finish ~phase:"synflood" ~ncpus ~clients:ncpus ~ops:!acked ~conns:0 ~lat
    ~retries:!retries ~lost:!lost ~half_open_peak:(Netserver.half_open net) m
    net

(* --- slowloris: half-open waves vs the reaper ----------------------------- *)

let measure_slowloris ~ncpus ~flood_syns ~victim_ops =
  let m = Machine.create (config ~ncpus) in
  let k = Mach.Kernel.boot m in
  let sys = k.Mach.Kernel.sys in
  let net = Netserver.create ~backlog:256 k ~style:Finegrain.Coarse in
  let lat = lats_create net in
  Netserver.set_delivery_probe net (lats_note lat);
  let server = Mach.Kernel.task_create k ~name:"web" () in
  let task = Mach.Kernel.task_create k ~name:"loris" () in
  let retries = ref 0 and lost = ref 0 and acked = ref 0 in
  let peak = ref 0 in
  spawn_on k server "acceptor" ~cpu:0 (fun () ->
      match Netserver.tcp_listen net ~port:80 with
      | Error e -> failwith e
      | Ok l ->
          let rec accept_loop h =
            let c = Netserver.tcp_accept net l in
            ignore
              (Mach.Kernel.thread_spawn k server
                 ~name:(Printf.sprintf "h%d" h)
                 (fun () ->
                   (* victims send immediately; a slowloris child never
                      produces data and wedges this handler — the reaper,
                      not the handler, is the defence *)
                   let n = Netserver.tcp_recv net c in
                   Netserver.tcp_send net c ~bytes:n;
                   Netserver.close net c)
                : thread);
            accept_loop (h + 1)
          in
          accept_loop 0);
  let waves = 5 in
  spawn_on k task "slowloris" ~cpu:(min 1 (ncpus - 1)) (fun () ->
      ignore (Mach.Clock.sleep_for sys ~cycles:2_000 : kern_return);
      let per_wave = max 1 (flood_syns / waves) in
      for w = 0 to waves - 1 do
        for i = 1 to per_wave do
          Netserver.inject_syn net
            ~src_port:(50_000 + (w * per_wave) + i)
            ~dst_port:80
            ~conn:(2_000_000 + (w * per_wave) + i)
        done;
        ignore (Mach.Clock.sleep_for sys ~cycles:150_000 : kern_return)
      done);
  spawn_on k task "reaper" ~cpu:0 (fun () ->
      (* periodic stale-embryo reaping, bounded so the run terminates *)
      for _ = 1 to (waves * 2) + 2 do
        ignore (Mach.Clock.sleep_for sys ~cycles:100_000 : kern_return);
        peak := max !peak (Netserver.half_open net);
        ignore (Netserver.reap_half_open net ~older_than:120_000 : int)
      done);
  for cpu = 0 to ncpus - 1 do
    spawn_on k task (Printf.sprintf "victim%d" cpu) ~cpu (fun () ->
        ignore (Mach.Clock.sleep_for sys ~cycles:4_000 : kern_return);
        for s = 1 to victim_ops do
          let rec attempt budget =
            if budget = 0 then incr lost
            else
              match Netserver.tcp_connect_start net ~dst_port:80 with
              | Error e -> failwith e
              | Ok c ->
                  let rec poll n =
                    Netserver.established c
                    || n > 0
                       && begin
                            ignore
                              (Mach.Clock.sleep_for sys ~cycles:6_000
                                : kern_return);
                            poll (n - 1)
                          end
                  in
                  if poll 10 then begin
                    Netserver.tcp_send net c ~bytes:(96 + (s mod 5));
                    if poll_reply sys net c ~polls:12 ~gap:6_000 then begin
                      incr acked;
                      Netserver.close net c
                    end
                    else begin
                      Netserver.close net c;
                      incr retries;
                      attempt (budget - 1)
                    end
                  end
                  else begin
                    Netserver.close net c;
                    incr retries;
                    attempt (budget - 1)
                  end
          in
          attempt 25
        done)
  done;
  Mach.Kernel.run k;
  (* final sweep: nothing half-open survives the phase *)
  ignore (Netserver.reap_half_open net ~older_than:0 : int);
  Netserver.clear_delivery_probe net;
  if Netserver.half_open net <> 0 then
    failwith "Net_storm: slowloris left half-open connections unreaped";
  finish ~phase:"slowloris" ~ncpus ~clients:ncpus ~ops:!acked ~conns:!acked
    ~lat ~retries:!retries ~lost:!lost ~half_open_peak:!peak m net

(* --- sweep ---------------------------------------------------------------- *)

let default_cpus = [ 1; 2; 4; 8 ]

let with_speedups =
  Rig.with_speedups
    ~series:(fun p -> p.np_phase)
    ~ncpus:(fun p -> p.np_ncpus)
    ~throughput:(fun p -> p.np_throughput)
    ~set:(fun p x -> { p with np_speedup = x })

let run ?(cpus = default_cpus) ?(endpoints = 32) ?(clients = 20_000)
    ?(packets = 12_000) ?(bytes = 512) ?(sessions = 24) ?(flood_syns = 200)
    ?(victim_ops = 12) () =
  if cpus = [] then invalid_arg "Net_storm.run: empty CPU list";
  List.iter
    (fun n -> if n < 1 then invalid_arg "Net_storm.run: ncpus must be >= 1")
    cpus;
  let flood_ncpus = List.fold_left max 1 cpus in
  let points =
    List.concat_map
      (fun ncpus ->
        [
          measure_firehose ~phase:"steady" ~ncpus ~endpoints ~clients ~packets
            ~bytes ~zipf:false;
          measure_firehose ~phase:"skew" ~ncpus ~endpoints ~clients ~packets
            ~bytes ~zipf:true;
          measure_churn ~ncpus ~sessions;
        ])
      cpus
    @ [
        measure_synflood ~ncpus:flood_ncpus ~flood_syns ~victim_ops;
        measure_slowloris ~ncpus:flood_ncpus ~flood_syns ~victim_ops;
      ]
  in
  {
    nr_cpus = cpus;
    nr_endpoints = endpoints;
    nr_clients = clients;
    nr_packets = packets;
    nr_bytes = bytes;
    nr_sessions = sessions;
    nr_flood_syns = flood_syns;
    nr_points = with_speedups points;
  }

(* --- acceptance probes ---------------------------------------------------- *)

let phase_point r ~phase ~ncpus =
  List.find_opt
    (fun p -> p.np_phase = phase && p.np_ncpus = ncpus)
    r.nr_points

let steady_speedup r ~ncpus =
  match phase_point r ~phase:"steady" ~ncpus with
  | Some p -> p.np_speedup
  | None -> 0.0

(* Worst p99/p50 ratio across the skewed points (ncpus > 1). *)
let skew_tail_ratio r =
  List.fold_left
    (fun acc p ->
      if p.np_phase = "skew" && p.np_ncpus > 1 && p.np_p50_cycles > 0 then
        max acc (float_of_int p.np_p99_cycles /. float_of_int p.np_p50_cycles)
      else acc)
    0.0 r.nr_points

let total_lost r =
  List.fold_left (fun acc p -> acc + p.np_lost_acked) 0 r.nr_points

let to_json r =
  let open Bench_json in
  let point p =
    Obj
      [ ("phase", Str p.np_phase); ("ncpus", int p.np_ncpus);
        ("clients", int p.np_clients); ("ops", int p.np_ops);
        ("wall_cycles", int p.np_wall_cycles);
        ("throughput_ops_per_mcycle", fixed 3 p.np_throughput);
        ("speedup", fixed 3 p.np_speedup); ("conns", int p.np_conns);
        ("p50_cycles", int p.np_p50_cycles);
        ("p99_cycles", int p.np_p99_cycles);
        ("fairness", fixed 3 p.np_fairness); ("syn_drops", int p.np_syn_drops);
        ("wire_drops", int p.np_wire_drops); ("reaped", int p.np_reaped);
        ("half_open_peak", int p.np_half_open_peak);
        ("retries", int p.np_retries); ("lost_acked", int p.np_lost_acked);
        ("xshard_msgs", int p.np_xshard_msgs) ]
  in
  Obj
    [ ("cpus", Arr (List.map int r.nr_cpus));
      ( "params",
        Obj
          [ ("endpoints", int r.nr_endpoints); ("clients", int r.nr_clients);
            ("packets", int r.nr_packets); ("bytes", int r.nr_bytes);
            ("sessions", int r.nr_sessions); ("flood_syns", int r.nr_flood_syns)
          ] );
      ("results", Arr (List.map point r.nr_points)) ]
