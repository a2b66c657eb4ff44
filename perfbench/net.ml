(* net-open: an open-loop Poisson generator on the machine's event
   timeline injects 256 B datagrams into 16 UDP endpoints of the 4-shard
   fine-grained netserver; one receiver thread per endpoint, bound to its
   shard's CPU.  The generator sends on schedule whatever the stack's
   state, so queues can grow: this is the only queueing-sensitive
   workload, and it bypasses RPC and the file server entirely.

   Latency runs from a packet's *intended* send time (so a stalled
   generator cannot hide the wait it imposed: no coordinated omission)
   to the receiver's return from udp_recv.  The start stamp is the
   absolute time the schedule fixed, the end stamp the receiving CPU's
   clock, which the scheduler only ever moves forward to a wake-up's send
   stamp: no other CPU's clock enters the interval.  The generator's own
   lag (actual minus intended inject time, both on CPU 0, where device
   events fire) and the backlog left at the end of each step's offered
   window are reported so the run's open-loop honesty can be checked. *)

let endpoints = 16
let base_port = 5000
let pkt_bytes = 256
let src_base = 100_000  (* a packet's source port carries its id *)
let warm_packets = 512

(* Saturation throughput of this stack at the commit that defined the
   benchmark (pkts/Mcycle).  The offered rates are fixed fractions of it,
   so later commits are compared at the same offered load. *)
let capacity = 640.0

(* The fixed rate ladder, as fractions of [capacity].  [mid] and [peak]
   give the reported latencies; they sit below the 0.8 and 0.95 one might
   pick because this stack's capacity grows with load (netisr batches
   deepen), so at 0.8 of saturation throughput its CPUs are already ~89%
   busy and a run's p99 still moves ~10% from seed to seed, and at 0.95
   ~97%, where it swings by a third.  The rungs above 1.0 fail at the
   commit that defined the benchmark; they are there so that a faster
   stack can raise max_ok_rate.  The top rung, offered beyond saturation,
   measures the delivered (saturation) throughput. *)
let ladder = [ 0.5; 0.65; 0.75; 0.95; 1.3; 1.6 ]
let mid = 0.65
let peak = 0.75
let top = 1.6

(* The known-bad overload step, run apart from the ladder: so far past
   saturation that only a stack about 7x faster than this one could drain
   it within the backlog limit, so it must never count as ok. *)
let overload = 8.0

(* Packets per step: the two reported steps run long enough for their
   pooled p99 to repeat within a few percent from seed to seed; the other
   rungs need only ten samples beyond their p99. *)
let packets frac = if frac = peak then 90_000 else if frac = mid then 27_000 else 4_000

(* A step counts toward max_ok_rate when its p99 meets [p99_limit], at
   most [backlog_limit] packets are still in flight when its offered
   window ends, and every datagram arrived exactly once, whole. *)
let p99_limit = 1_000_000
let backlog_limit = 512

type step = {
  frac : float;
  rate : float;  (* offered, pkts/Mcycle *)
  first : int;  (* id of the step's first packet *)
  n : int;
  intended : int array;
  injected : int array;
  recv : int array;  (* receiver return stamp, -1 until delivered *)
  dst : int array;
  mutable dups : int;
  mutable bad : int;  (* wrong size or wrong endpoint *)
  ring : Stats.samples;  (* netserver delivery probe: ring wait + protocol *)
  mutable wall : int;
  mutable before : Stack.counters option;
  mutable after : Stack.counters option;
}

type env = {
  st : Stack.t;
  seed : int;
  mutable tr : Trace.t option;
  mutable cur : step option;
  mutable strays : int;  (* datagrams matching no packet of the step *)
  mutable next_id : int;
}

let on_recv env ~e ~cpu (src, bytes) =
  match env.cur with
  | None -> env.strays <- env.strays + 1
  | Some s ->
      let i = src - src_base - s.first in
      if i < 0 || i >= s.n then env.strays <- env.strays + 1
      else if s.recv.(i) >= 0 then s.dups <- s.dups + 1
      else begin
        s.recv.(i) <- Stack.cpu_now env.st cpu;
        if bytes <> pkt_bytes || s.dst.(i) <> e then s.bad <- s.bad + 1
      end

let spawn_receivers env =
  let st = env.st in
  let task = Mach.Kernel.task_create st.Stack.k ~name:"udp-apps" () in
  for e = 0 to endpoints - 1 do
    let port = base_port + e in
    let cpu = Netserver.port_shard st.Stack.net ~port mod Stack.ncpus in
    Stack.spawn st task ~name:(Printf.sprintf "rx%d" e) ~cpu (fun () ->
        match Netserver.udp_socket st.Stack.net ~port with
        | Error err -> failwith ("net-open bind: " ^ err)
        | Ok sock ->
            let rec loop () =
              let r, _ =
                Trace.call env.tr st ~layer:"netserver" ~fn:"udp_recv" ~cpu
                  ~actor:(100 + e) (fun () -> Netserver.udp_recv st.Stack.net sock)
              in
              on_recv env ~e ~cpu r;
              loop ()
            in
            loop ())
  done;
  Mach.Kernel.run st.Stack.k

(* Device events fire on CPU 0's timeline, so the generator reads and
   stamps CPU 0's clock.  Each event injects one packet and schedules
   the next at its intended time (at once, if already overdue). *)
let rec fire env s i () =
  let st = env.st in
  s.injected.(i) <- Stack.cpu_now st 0;
  ignore
    (Trace.call env.tr st ~layer:"netserver" ~fn:"inject_udp" ~cpu:0 ~actor:99
       (fun () ->
         Netserver.inject_udp st.Stack.net ~src_port:(src_base + s.first + i)
           ~dst_port:(base_port + s.dst.(i)) ~bytes:pkt_bytes)
      : unit * int);
  if i + 1 < s.n then
    Machine.Event_queue.schedule st.Stack.m.Machine.events ~at:s.intended.(i + 1)
      (fire env s (i + 1))

let run_step env ~frac ~n ~tag =
  let st = env.st in
  let rate = frac *. capacity in
  let rng = Random.State.make [| env.seed; tag |] in
  let t0 = Stack.sync_clocks st in
  let mean_gap = 1e6 /. rate in
  let t = ref (float_of_int t0) in
  let intended =
    Array.init n (fun _ ->
        t := !t -. (mean_gap *. log (1.0 -. Random.State.float rng 1.0));
        int_of_float (Float.round !t))
  in
  let s =
    {
      frac; rate; first = env.next_id; n; intended;
      injected = Array.make n 0;
      recv = Array.make n (-1);
      dst = Array.init n (fun _ -> Random.State.int rng endpoints);
      dups = 0; bad = 0; ring = Stats.create (); wall = 0;
      before = None; after = None;
    }
  in
  env.next_id <- env.next_id + n;
  env.cur <- Some s;
  Netserver.set_delivery_probe st.Stack.net (fun _shard lat -> Stats.add s.ring lat);
  s.before <- Some (Stack.counters st);
  Machine.Event_queue.schedule st.Stack.m.Machine.events ~at:intended.(0)
    (fire env s 0);
  Mach.Kernel.run st.Stack.k;
  let after = Stack.counters st in
  s.after <- Some after;
  s.wall <- after.Stack.c_wall - t0;
  Netserver.clear_delivery_probe st.Stack.net;
  env.cur <- None;
  s

(* --- per-step results ------------------------------------------------------ *)

let delivered s = Array.fold_left (fun acc r -> if r >= 0 then acc + 1 else acc) 0 s.recv
let failed s = s.n - delivered s + s.dups + s.bad

let latencies s =
  let l = Stats.create () in
  Array.iteri (fun i r -> if r >= 0 then Stats.add l (r - s.intended.(i))) s.recv;
  l

let lags s =
  let l = Stats.create () in
  Array.iteri (fun i x -> Stats.add l (x - s.intended.(i))) s.injected;
  l

(* Packets still in flight when the step's offered window closed. *)
let backlog_end s =
  let t_end = s.intended.(s.n - 1) in
  Array.fold_left (fun acc r -> if r < 0 || r > t_end then acc + 1 else acc) 0 s.recv

let throughput s =
  if s.wall = 0 then 0.0 else float_of_int (delivered s) /. float_of_int s.wall *. 1e6

let ok s =
  match (Stats.percentile (latencies s) 0.99).Stats.value with
  | Some v -> v <= p99_limit && backlog_end s <= backlog_limit && failed s = 0
  | None -> false

(* --- set-up and one measured run ------------------------------------------ *)

let setup ~seed () =
  let st = Stack.boot () in
  let env = { st; seed; tr = None; cur = None; strays = 0; next_id = 0 } in
  spawn_receivers env;
  ignore (run_step env ~frac:0.5 ~n:warm_packets ~tag:0 : step);
  env

type run = { steps : step list; host_s : float }

let measure env =
  let steps, host_s =
    Trace.cpu_timed (fun () ->
        List.mapi (fun i frac -> run_step env ~frac ~n:(packets frac) ~tag:(i + 1)) ladder)
  in
  { steps; host_s }

let step_at r frac = List.find (fun s -> s.frac = frac) r.steps
