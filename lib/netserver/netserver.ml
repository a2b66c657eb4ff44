(* The networking shared service, restructured after DragonFly's netisr
   model: incoming packets are hashed to a fixed per-CPU protocol thread
   (the shard's "netisr"), so every connection's socket and TCP state
   live in exactly one shard and are touched by exactly one thread —
   lock-free by construction.  With one shard (any uniprocessor boot)
   all of the machinery is inert and the server behaves, cycle for
   cycle, like the original single-loop implementation. *)

type proto = Udp | Tcp_syn | Tcp_synack | Tcp_ack | Tcp_data

type packet = {
  p_proto : proto;
  p_src : int;
  p_dst : int;
  p_bytes : int;
  p_conn : int;  (* TCP connection id *)
  p_zc : bool;  (* payload travels by page remap, not through the layers *)
  p_chunks : int;  (* scatter/gather descriptors (1 for a plain send) *)
  p_sent : int;  (* rx-ring-entry stamp (home CPU cycles), for latency probes *)
}

type sock_kind =
  | S_udp
  | S_listen of (int * int) Queue.t  (* pending (peer port, conn id) *)
  | S_tcp of int  (* connection id *)

type socket = {
  s_uid : int;  (* unique over the server's lifetime (ports are reused) *)
  s_port : int;
  s_home : int;  (* owning shard: the only shard that may deliver to it *)
  mutable s_kind : sock_kind;
  rx : (int * int) Queue.t;  (* (src port, bytes) *)
  mutable s_peer : int;  (* established TCP peer port; -1 when unknown *)
  mutable s_established : bool;
  mutable s_open : bool;
  mutable s_born : int;  (* creation stamp, for half-open reaping *)
  mutable s_waiter : Mach.Ktypes.thread option;
}

(* One protocol shard: socket/connection/port tables plus the rx ring
   its netisr thread drains.  Every field is only ever mutated from the
   shard's home context (its netisr thread, or — for the syscall-side
   tables — under the cross-shard registry protocol below). *)
type shard = {
  sh_id : int;
  sh_sockets : (int, socket) Hashtbl.t;  (* local port -> home socket *)
  sh_conns : (int, int) Hashtbl.t;  (* conn id -> live endpoints (0..2) *)
  sh_embryonic : (int, socket) Hashtbl.t;  (* conn -> half-open child *)
  sh_layers : Finegrain.obj array;  (* per-shard ethernet/ip/transport/socket *)
  sh_rx : packet Queue.t;  (* rx ring, fed by the wire, drained in batches *)
  mutable sh_wake_pending : bool;  (* doorbell already rung (LWKT batching) *)
  mutable sh_thread : Mach.Ktypes.thread option;  (* the netisr thread *)
  mutable sh_next_conn : int;  (* strided: shard k hands out k, k+n, ... *)
  mutable sh_port_hint : int;  (* next never-used ephemeral in our residue *)
  mutable sh_free_ports : int list;  (* closed ephemerals, O(1) reuse *)
  mutable sh_delivered : int;  (* packets this shard processed (occupancy) *)
  mutable sh_batches : int;  (* netisr drain activations *)
  mutable sh_dead : bool;  (* mid micro-reboot: tables gone, ring drops *)
  mutable sh_generation : int;  (* bumped per reincarnation *)
  mutable sh_reboot_drops : int;  (* in-flight packets lost to a reboot *)
}

type t = {
  kernel : Mach.Kernel.t;
  objrt : Finegrain.t;
  shards : shard array;
  port_owner : (int, int) Hashtbl.t;  (* registry: bound port -> shard *)
  port_sock : (int, socket) Hashtbl.t;
      (* the registry's socket records, carried by the bind messages: a
         reincarnating shard rebuilds its tables from these.  Socket
         buffers (the rx queues) live on the endpoint records the user
         tasks hold, not in the shard's tables — which is why data the
         protocol already acked survives a micro-reboot. *)
  backlog : int;  (* per-listener SYN backlog bound (backpressure) *)
  mutable next_uid : int;
  mutable packets : int;
  mutable checksummed : int;
  mutable zc_sends : int;
  mutable syn_drops : int;  (* SYNs refused by a full backlog *)
  mutable wire_drops : int;  (* packets lost to injected faults *)
  mutable reaped : int;  (* half-open sockets closed by the reaper *)
  mutable registry_msgs : int;  (* cross-shard port-registry messages *)
  mutable xshard_accepts : int;  (* accepts whose child lives elsewhere *)
  mutable probe : (int -> int -> unit) option;
      (* delivery probe: wire->socket latency of each packet, in cycles *)
  mutable netisr_task : Mach.Ktypes.task option;  (* home of netisr threads *)
  mutable reincarnations : int;  (* shard micro-reboots completed *)
}

let wire_latency = 2_000  (* cycles on the simulated segment *)
let header_bytes = 54  (* eth 14 + ip 20 + tcp 20 *)
let ephemeral_base = 32768
let default_backlog = 64

let sys t = t.kernel.Mach.Kernel.sys
let machine t = t.kernel.Mach.Kernel.machine
let nshards t = Array.length t.shards

(* --- steering ----------------------------------------------------------- *)

(* FNV-1a-style mix: the packet alone decides its shard, no shared
   lookup on the steering path. *)
let mix h x = (h lxor x) * 0x01000193 land 0x3fffffff
let fnv_seed = 0x811c9dc5 land 0x3fffffff

let shard_of_port t port =
  if nshards t = 1 then 0 else mix fnv_seed port mod nshards t

let shard_of_conn t conn =
  if nshards t = 1 then 0 else mix (mix fnv_seed conn) 0x9e3779b9 mod nshards t

(* Bound sockets (UDP binds, TCP listeners) home on the hash of their
   port; connection sockets home on the hash of their connection id —
   both ends of a connection land in the same shard, so established
   traffic never crosses. *)
let steer t (pkt : packet) =
  match pkt.p_proto with
  | Udp | Tcp_syn -> t.shards.(shard_of_port t pkt.p_dst)
  | Tcp_synack | Tcp_ack | Tcp_data -> t.shards.(shard_of_conn t pkt.p_conn)

(* The shard whose context the current CPU represents (syscall side). *)
let cpu_shard t =
  if nshards t = 1 then t.shards.(0)
  else t.shards.(Machine.active (machine t) mod nshards t)

(* --- cross-shard registry protocol -------------------------------------- *)

(* Port binds/unbinds and cross-shard accept installs travel as messages
   of the server's interface vocabulary.  In the simulator the dispatch
   is immediate (the registry is host-side state), but every crossing is
   counted and charged a message-sized cost so the protocol's price is
   visible in measurements. *)
type Mach.Ktypes.payload +=
  | Net_bind of { nb_port : int; nb_shard : int; nb_sock : socket }
  | Net_unbind of { nu_port : int }
  | Net_accept_install of { na_conn : int; na_port : int }

let xshard_cost = 120  (* cycles: one cache-to-cache message handoff *)

let xshard_stall t = Machine.Cpu.stall (machine t).Machine.cpu xshard_cost

let registry_handle t (msg : Mach.Ktypes.payload) =
  match msg with
  | Net_bind { nb_port; nb_shard; nb_sock } ->
      Hashtbl.replace t.port_owner nb_port nb_shard;
      Hashtbl.replace t.port_sock nb_port nb_sock
  | Net_unbind { nu_port } ->
      Hashtbl.remove t.port_owner nu_port;
      Hashtbl.remove t.port_sock nu_port
  | Net_accept_install _ -> ()  (* install is performed by the target shard *)
  | _ -> ()  (* not a registry message; ignore *)

let xshard_post t ~(from : shard) ~(target : int) msg =
  if from.sh_id <> target && nshards t > 1 then begin
    t.registry_msgs <- t.registry_msgs + 1;
    xshard_stall t
  end;
  registry_handle t msg

let objects t = t.objrt
let packets_processed t = t.packets
let checksum_bytes t = t.checksummed
let zero_copy_sends t = t.zc_sends
let shard_count = nshards
let syn_drops t = t.syn_drops
let wire_drops t = t.wire_drops
let reaped_half_open t = t.reaped
let registry_messages t = t.registry_msgs
let cross_shard_accepts t = t.xshard_accepts
let shard_delivered t = Array.map (fun sh -> sh.sh_delivered) t.shards
let shard_batches t = Array.map (fun sh -> sh.sh_batches) t.shards
let port_shard t ~port = shard_of_port t port

let half_open t =
  Array.fold_left (fun acc sh -> acc + Hashtbl.length sh.sh_embryonic) 0 t.shards

let set_delivery_probe t f = t.probe <- Some f
let clear_delivery_probe t = t.probe <- None

(* --- the stack walk ------------------------------------------------------ *)

(* walk the stack: one framework invocation per layer, work scaling with
   the bytes each layer handles; the IP layer also checksums.  A
   zero-copy packet's payload never passes through the layers — each one
   handles the header plus a descriptor of remapped pages, so only the
   header is touched and checksummed.  The layer objects are the
   *shard's own*: protocol state is per-CPU, after netisr. *)
let walk_stack t (sh : shard) ~bytes ~zc =
  t.packets <- t.packets + 1;
  let touched = if zc then header_bytes else bytes + header_bytes in
  t.checksummed <- t.checksummed + touched;
  Array.iter
    (fun layer ->
      Finegrain.invoke t.objrt layer ~work_units:(2 + (touched / 64)))
    sh.sh_layers

(* Payloads of at least a page go out by remap: the layers see a
   descriptor, the pages change hands at the map level.  Below that the
   map edit and shootdown cost more than just copying. *)
let zc_threshold = Mach.Ktypes.page_size

(* The pages the zero-copy path cycles through, for shootdown
   addressing — distinct from any kernel buffer so the invalidations
   don't alias the kbuf working set. *)
let zc_region t =
  let layout = (machine t).Machine.layout in
  match Machine.Layout.find layout "net.zc-pages" with
  | Some r -> r
  | None ->
      Machine.Layout.alloc layout ~name:"net.zc-pages"
        ~kind:Machine.Layout.Data
        ~size:(64 * Mach.Ktypes.page_size)

(* What a zero-copy transfer actually costs at each end of the wire: a
   map-entry edit per scatter/gather chunk plus one TLB shootdown over
   the remapped pages — never a per-byte term. *)
let charge_remap t ~chunks ~bytes =
  let ktext = (sys t).Mach.Sched.ktext in
  for _ = 1 to chunks do
    Mach.Ktext.exec1 ktext Mach.Ktext.vm_remap_entry
  done;
  let region = zc_region t in
  Machine.Cpu.tlb_shootdown (machine t).Machine.cpu
    ~addr:region.Machine.Layout.base
    ~pages:(Mach.Ktypes.pages_of_bytes bytes)

let wake_sock t s =
  match s.s_waiter with
  | Some th ->
      s.s_waiter <- None;
      Mach.Sched.wake (sys t) th
  | None -> ()

let wait_on t s reason =
  s.s_waiter <- Some (Mach.Sched.self ());
  ignore (Mach.Sched.block reason : Mach.Ktypes.kern_return);
  ignore t

(* --- delivery: the netisr path ------------------------------------------- *)

let conn_incr sh conn =
  Hashtbl.replace sh.sh_conns conn
    (1 + Option.value ~default:0 (Hashtbl.find_opt sh.sh_conns conn))

let conn_decr sh conn =
  match Hashtbl.find_opt sh.sh_conns conn with
  | Some n when n > 1 -> Hashtbl.replace sh.sh_conns conn (n - 1)
  | Some _ -> Hashtbl.remove sh.sh_conns conn
  | None -> ()

let conn_live sh conn = Option.value ~default:0 (Hashtbl.find_opt sh.sh_conns conn)

(* The CPU a shard's netisr is bound to, and its receive interrupt
   steered to. *)
let shard_cpu t (sh : shard) = sh.sh_id mod Machine.ncpus (machine t)

(* The home shard's CPU-local clock.  Latency probes stamp and read this
   one clock, so the interval is the cycles that CPU spent between
   rx-ring entry and socket delivery — ring wait plus protocol work —
   independent of how far other CPUs' clocks have drifted. *)
let shard_clock t (sh : shard) =
  Machine.Cpu.now (Machine.nth_cpu (machine t) (shard_cpu t sh))

(* Process one packet inside its home shard: the protocol walk, the
   socket-table lookup and every socket mutation happen here and only
   here — the shard-crossing assertion in Machcheck watches this spot. *)
let rec process t (sh : shard) (pkt : packet) =
  walk_stack t sh ~bytes:pkt.p_bytes ~zc:pkt.p_zc;
  if pkt.p_zc then charge_remap t ~chunks:pkt.p_chunks ~bytes:pkt.p_bytes;
  sh.sh_delivered <- sh.sh_delivered + 1;
  (match t.probe with
  | Some f -> f sh.sh_id (max 0 (shard_clock t sh - pkt.p_sent))
  | None -> ());
  match Hashtbl.find_opt sh.sh_sockets pkt.p_dst with
  | None -> ()  (* dropped: no listener *)
  | Some s -> (
      Mach.Mcheck.on (sys t) (fun c space ->
          Check.net_touched c ~space ~sock:s.s_uid ~home:s.s_home
            ~shard:sh.sh_id);
      match (pkt.p_proto, s.s_kind) with
      | Udp, S_udp ->
          Queue.add (pkt.p_src, pkt.p_bytes) s.rx;
          wake_sock t s
      | Tcp_syn, S_listen pending ->
          (* backpressure: a full backlog refuses the SYN instead of
             letting a flood grow server state without bound *)
          if Queue.length pending >= t.backlog then
            t.syn_drops <- t.syn_drops + 1
          else begin
            Queue.add (pkt.p_src, pkt.p_conn) pending;
            wake_sock t s
          end
      | Tcp_synack, S_tcp conn when conn = pkt.p_conn ->
          s.s_established <- true;
          s.s_peer <- pkt.p_src;
          transmit t
            { p_proto = Tcp_ack; p_src = s.s_port; p_dst = pkt.p_src;
              p_bytes = 0; p_conn = conn; p_zc = false; p_chunks = 1;
              p_sent = 0 };
          wake_sock t s
      | Tcp_ack, S_tcp conn when conn = pkt.p_conn ->
          s.s_established <- true;
          if s.s_peer < 0 then s.s_peer <- pkt.p_src;
          Hashtbl.remove sh.sh_embryonic conn;  (* handshake completed *)
          wake_sock t s
      | Tcp_data, S_tcp conn when conn = pkt.p_conn ->
          Queue.add (pkt.p_src, pkt.p_bytes) s.rx;
          wake_sock t s
      | (Udp | Tcp_syn | Tcp_synack | Tcp_ack | Tcp_data), _ -> ())

(* Drain the rx ring in bounded batches.  Runs on the shard's netisr
   thread (or directly in wire context on a single-shard server); it
   must never park the CPU mid-batch. *)
and[@machlint.no_block] drain t (sh : shard) =
  sh.sh_batches <- sh.sh_batches + 1;
  let budget = ref 32 in
  while !budget > 0 && not (Queue.is_empty sh.sh_rx) do
    process t sh (Queue.pop sh.sh_rx);
    decr budget
  done

(* Wire arrival at the home shard.  One shard: the pre-netisr direct
   path, cycle-identical to the original single-loop server.  Sharded:
   enqueue on the home shard's ring and ring the doorbell only on the
   empty->pending transition (one wakeup covers a burst, after LWKT's
   IPI batching).  The receive interrupt already runs on the shard's CPU
   ([arrive]), so the doorbell is a local enqueue stamped with that
   CPU's clock.  The latency stamp is taken here, at rx-ring entry,
   against the same clock: the probe measures the portion the netserver
   owns (ring wait plus protocol processing), not simulated wire
   travel. *)
and deliver t (sh : shard) (pkt : packet) =
  if sh.sh_dead then
    (* mid micro-reboot: the wire keeps arriving, the shard isn't there.
       Count the loss — closed-loop clients re-drive via their retry
       paths, so only unacked in-flight data is affected. *)
    sh.sh_reboot_drops <- sh.sh_reboot_drops + 1
  else begin
    let pkt = { pkt with p_sent = shard_clock t sh } in
    if nshards t = 1 then process t sh pkt
    else begin
      Queue.add pkt sh.sh_rx;
      if not sh.sh_wake_pending then begin
        sh.sh_wake_pending <- true;
        match sh.sh_thread with
        | Some th -> Mach.Sched.wake (sys t) th
        | None -> ()
      end
    end
  end

(* The receive interrupt of a packet arriving at cycle [at].  A sharded
   server steers it to the home shard's CPU, as RSS steers each receive
   queue's MSI-X vector: the handler runs as that CPU, idled up to [at]
   if it is behind, so the netisr's wake is neither an IPI nor a
   message stamped with the boot CPU's clock.  One shard keeps the
   wire-context path: the handler runs where the event fired. *)
and[@machlint.no_block] arrive t pkt ~at =
  let sh = steer t pkt in
  if nshards t = 1 then deliver t sh pkt
  else
    Mach.Sched.interrupt_on (sys t) ~cpu:(shard_cpu t sh) ~at (fun () ->
        deliver t sh pkt)

(* The wire hop: a fault-injection point (an installed plan may drop or
   delay packets — SYN storms ride this; with no plan the hook is one
   None match), then arrival after the segment's fixed latency.
   [transmit] charges the local sender's stack walk before entering
   here; raw injection ([inject_udp] / [inject_syn]) enters directly —
   an external client's transmit cost is not this machine's to pay. *)
and wire_send t pkt =
  let m = machine t in
  let decision =
    match (sys t).Mach.Sched.faults with
    | None -> Mach.Fault.M_pass
    | Some f ->
        Mach.Fault.on_send f ~port:(Printf.sprintf "net:%d" pkt.p_dst)
  in
  let arrive_after delay =
    let at = Machine.now m + wire_latency + delay in
    Machine.Event_queue.schedule m.Machine.events ~at (fun () ->
        arrive t pkt ~at)
  in
  match decision with
  | Mach.Fault.M_drop -> t.wire_drops <- t.wire_drops + 1
  | Mach.Fault.M_pass -> arrive_after 0
  | Mach.Fault.M_delay d -> arrive_after d

and transmit t pkt =
  walk_stack t (cpu_shard t) ~bytes:pkt.p_bytes ~zc:pkt.p_zc;
  if pkt.p_zc then begin
    t.zc_sends <- t.zc_sends + 1;
    charge_remap t ~chunks:pkt.p_chunks ~bytes:pkt.p_bytes
  end;
  wire_send t pkt

(* The per-shard protocol thread: drain, then sleep until the wire rings
   the doorbell again.  Spawned once per shard on a sharded server,
   affinity-bound to its CPU so shard state never migrates. *)
let rec netisr_loop t sh () =
  drain t sh;
  if Queue.is_empty sh.sh_rx then begin
    sh.sh_wake_pending <- false;
    ignore (Mach.Sched.block "netisr-idle" : Mach.Ktypes.kern_return)
  end
  else Mach.Sched.yield ();  (* batch boundary: let peers run *)
  netisr_loop t sh ()

let spawn_netisr t task (sh : shard) =
  let name =
    if sh.sh_generation = 0 then Printf.sprintf "netisr%d" sh.sh_id
    else Printf.sprintf "netisr%d.%d" sh.sh_id sh.sh_generation
  in
  let th =
    Mach.Kernel.thread_spawn t.kernel task ~name
      ~affinity:(shard_cpu t sh)
      ~bound:true (netisr_loop t sh)
  in
  (* protocol threads outrank user threads on their CPU: a woken
     netisr drains its ring before the co-located producer gets
     to inject the next burst on top of a still-full ring *)
  th.Mach.Ktypes.priority <- 10;
  sh.sh_thread <- Some th

let start_netisr t =
  if nshards t > 1 then begin
    let task = Mach.Kernel.task_create t.kernel ~name:"netisr" () in
    t.netisr_task <- Some task;
    Array.iter (spawn_netisr t task) t.shards
  end

(* --- socket setup (syscall side) ----------------------------------------- *)

let alloc_sock t (home : shard) ~port kind =
  if home.sh_dead then Error (Printf.sprintf "shard %d down" home.sh_id)
  else if Hashtbl.mem t.port_owner port then
    Error (Printf.sprintf "port %d in use" port)
  else begin
    let s =
      {
        s_uid = t.next_uid;
        s_port = port;
        s_home = home.sh_id;
        s_kind = kind;
        rx = Queue.create ();
        s_peer = -1;
        s_established = false;
        s_open = true;
        s_born = Machine.global_now (machine t);
        s_waiter = None;
      }
    in
    t.next_uid <- t.next_uid + 1;
    xshard_post t ~from:(cpu_shard t) ~target:home.sh_id
      (Net_bind { nb_port = port; nb_shard = home.sh_id; nb_sock = s });
    Hashtbl.replace home.sh_sockets port s;
    (match kind with S_tcp conn -> conn_incr home conn | _ -> ());
    Mach.Mcheck.on (sys t) (fun c space ->
        Check.net_socket_home c ~space ~sock:s.s_uid ~shard:home.sh_id);
    Ok s
  end

let udp_socket t ~port = alloc_sock t t.shards.(shard_of_port t port) ~port S_udp

let udp_send t s ~dst_port ~bytes =
  transmit t
    { p_proto = Udp; p_src = s.s_port; p_dst = dst_port; p_bytes = bytes;
      p_conn = 0; p_zc = bytes >= zc_threshold; p_chunks = 1; p_sent = 0 }

(* Vectored (scatter/gather) datagram: the chunks go out as one packet
   whose header is walked once; each chunk costs its own map-entry edit
   on the zero-copy path.  Small gathers fall back to the copying walk
   over the summed bytes. *)
let udp_send_vec t s ~dst_port ~iov =
  let bytes = List.fold_left ( + ) 0 iov in
  let chunks = max 1 (List.length iov) in
  transmit t
    { p_proto = Udp; p_src = s.s_port; p_dst = dst_port; p_bytes = bytes;
      p_conn = 0; p_zc = bytes >= zc_threshold; p_chunks = chunks; p_sent = 0 }

let rec udp_recv t s =
  match Queue.take_opt s.rx with
  | Some hit -> hit
  | None ->
      wait_on t s "udp-recv";
      udp_recv t s

let try_recv (_t : t) s = Queue.take_opt s.rx
let pending s = Queue.length s.rx

(* Ephemeral local ports from 32768, O(1) under churn: each shard owns
   the residue class  { base + shard + k*nshards }  plus a free list of
   its closed ports, so allocation is a list pop or a hint bump — never
   a scan over the socket table. *)
let fresh_port t (sh : shard) =
  match sh.sh_free_ports with
  | p :: rest ->
      sh.sh_free_ports <- rest;
      p
  | [] ->
      let stride = nshards t in
      let rec next () =
        let p = sh.sh_port_hint in
        sh.sh_port_hint <- p + stride;
        (* skip ports a client bound explicitly in our residue class *)
        if Hashtbl.mem t.port_owner p then next () else p
      in
      next ()

let tcp_listen t ~port =
  alloc_sock t t.shards.(shard_of_port t port) ~port (S_listen (Queue.create ()))

(* Connection ids, strided per shard so allocation is contention-free. *)
let fresh_conn t =
  let sh = cpu_shard t in
  let conn = sh.sh_next_conn in
  sh.sh_next_conn <- conn + nshards t;
  conn

(* Accept steering: the pending entry was queued on the *listener's*
   shard; the child socket homes on the hash of its connection id, which
   is usually a different shard — the install travels as a registry
   message (the cross-shard accept protocol). *)
let accept_child t (listener : socket) ~peer ~conn =
  let home = t.shards.(shard_of_conn t conn) in
  if home.sh_id <> listener.s_home then begin
    t.xshard_accepts <- t.xshard_accepts + 1;
    xshard_post t ~from:t.shards.(listener.s_home) ~target:home.sh_id
      (Net_accept_install { na_conn = conn; na_port = 0 })
  end;
  let port = fresh_port t home in
  match alloc_sock t home ~port (S_tcp conn) with
  | Error e -> failwith e
  | Ok child ->
      child.s_peer <- peer;
      (* half-open until the peer's ACK lands; the reaper may claim it *)
      Hashtbl.replace home.sh_embryonic conn child;
      transmit t
        { p_proto = Tcp_synack; p_src = port; p_dst = peer; p_bytes = 0;
          p_conn = conn; p_zc = false; p_chunks = 1; p_sent = 0 };
      child

let rec tcp_accept t s =
  match s.s_kind with
  | S_listen pending -> (
      match Queue.take_opt pending with
      | Some (peer, conn) -> accept_child t s ~peer ~conn
      | None ->
          wait_on t s "tcp-accept";
          tcp_accept t s)
  | S_udp | S_tcp _ -> invalid_arg "tcp_accept: not a listening socket"

(* Non-blocking connect initiation: sends the SYN and returns; callers
   poll {!established} (the storm workload uses this so flooded SYNs
   never wedge a driver thread). *)
let tcp_connect_start t ~dst_port =
  let conn = fresh_conn t in
  let home = t.shards.(shard_of_conn t conn) in
  let port = fresh_port t home in
  match alloc_sock t home ~port (S_tcp conn) with
  | Error e -> Error e
  | Ok s ->
      transmit t
        { p_proto = Tcp_syn; p_src = port; p_dst = dst_port; p_bytes = 0;
          p_conn = conn; p_zc = false; p_chunks = 1; p_sent = 0 };
      Ok s

let tcp_connect t ~dst_port =
  match tcp_connect_start t ~dst_port with
  | Error e -> Error e
  | Ok s ->
      while not s.s_established do
        wait_on t s "tcp-connect"
      done;
      Ok s

let tcp_send_gather t s ~iov name =
  match s.s_kind with
  | S_tcp conn ->
      (* the established peer is recorded on the socket (no table scan);
         send only while both endpoints of the connection are live, as
         the original peer-lookup behaved *)
      let home = t.shards.(s.s_home) in
      if s.s_peer >= 0 && conn_live home conn >= 2 then begin
        let bytes = List.fold_left ( + ) 0 iov in
        transmit t
          { p_proto = Tcp_data; p_src = s.s_port; p_dst = s.s_peer;
            p_bytes = bytes; p_conn = conn;
            p_zc = bytes >= zc_threshold;
            p_chunks = max 1 (List.length iov); p_sent = 0 }
      end
  | S_udp | S_listen _ -> invalid_arg (name ^ ": not a TCP socket")

let tcp_send t s ~bytes = tcp_send_gather t s ~iov:[ bytes ] "tcp_send"
let tcp_send_vec t s ~iov = tcp_send_gather t s ~iov "tcp_send_vec"

let rec tcp_recv t s =
  match Queue.take_opt s.rx with
  | Some (_, bytes) -> bytes
  | None ->
      wait_on t s "tcp-recv";
      tcp_recv t s

let established s = s.s_established
let local_port s = s.s_port

let close t s =
  if s.s_open then begin
    s.s_open <- false;
    let home = t.shards.(s.s_home) in
    Hashtbl.remove home.sh_sockets s.s_port;
    xshard_post t ~from:(cpu_shard t) ~target:home.sh_id
      (Net_unbind { nu_port = s.s_port });
    (match s.s_kind with
    | S_tcp conn ->
        conn_decr home conn;
        Hashtbl.remove home.sh_embryonic conn
    | S_udp | S_listen _ -> ());
    (* ephemeral ports go back to their shard's free list: O(1) reuse *)
    if s.s_port >= ephemeral_base then
      home.sh_free_ports <- s.s_port :: home.sh_free_ports
  end

(* Reap half-open (embryonic) connections older than [older_than] cycles
   — the slowloris defence.  Walks only the embryonic tables, which hold
   exactly the connections still mid-handshake. *)
let reap_half_open t ~older_than =
  let now = Machine.global_now (machine t) in
  let n = ref 0 in
  Array.iter
    (fun sh ->
      let stale =
        Hashtbl.fold
          (fun _conn s acc ->
            if (not s.s_established) && now - s.s_born > older_than then
              s :: acc
            else acc)
          sh.sh_embryonic []
      in
      List.iter
        (fun s ->
          close t s;
          incr n)
        stale)
    t.shards;
  t.reaped <- t.reaped + !n;
  !n

(* --- shard micro-reboot --------------------------------------------------- *)

(* Kill one protocol shard: terminate its netisr thread, drop whatever
   the rx ring held (counted — closed-loop clients re-drive it), and
   wipe every table.  The socket records themselves are NOT freed: the
   endpoints hold them, and the cross-shard registry kept its own copy
   with each bind — which is what [reincarnate_shard] rebuilds from.
   Data already delivered into socket rx queues (acked data) is on the
   endpoint records and survives untouched. *)
let kill_shard t ~shard =
  let sh = t.shards.(shard) in
  if sh.sh_dead then invalid_arg "Netserver.kill_shard: shard already dead";
  Mach.Mcheck.on (sys t) (fun c space ->
      Check.reinc_shard_killed c ~space ~shard);
  (* mark what a faithful rebirth must restore *)
  Hashtbl.iter
    (fun _port (s : socket) ->
      Mach.Mcheck.on (sys t) (fun c space ->
          Check.reinc_expect c ~space ~shard ~sock:s.s_uid))
    sh.sh_sockets;
  (match sh.sh_thread with
  | Some th ->
      Mach.Sched.terminate (sys t) th;
      sh.sh_thread <- None
  | None -> ());
  sh.sh_reboot_drops <- sh.sh_reboot_drops + Queue.length sh.sh_rx;
  Queue.clear sh.sh_rx;
  Hashtbl.reset sh.sh_sockets;
  Hashtbl.reset sh.sh_conns;
  Hashtbl.reset sh.sh_embryonic;
  sh.sh_free_ports <- [];
  sh.sh_wake_pending <- false;
  sh.sh_dead <- true

(* Reincarnate a killed shard.  The socket table is rebuilt from the
   registry's bind records (each reinstall charged one cross-shard
   message, as the real protocol would cost); connection refcounts and
   the embryonic table follow from the sockets themselves — both ends of
   a connection home here, and a not-yet-established TCP socket is by
   definition still mid-handshake, so the reaper keeps working across a
   reboot.  The ephemeral free list is reconstructed from the registry:
   every port of our residue class below the high-water mark that nobody
   holds is free.  Registry entries claiming this shard with no socket
   behind them are leaked rights — reported, then reclaimed. *)
let reincarnate_shard t ~shard =
  let sh = t.shards.(shard) in
  if not sh.sh_dead then
    invalid_arg "Netserver.reincarnate_shard: shard is not dead";
  let stride = nshards t in
  let mine p = p >= ephemeral_base && (p - ephemeral_base) mod stride = shard in
  (* rebuild the socket/conn/embryonic tables from the registry copy *)
  Hashtbl.iter
    (fun port (s : socket) ->
      if s.s_home = shard && s.s_open then begin
        t.registry_msgs <- t.registry_msgs + 1;
        xshard_stall t;
        Hashtbl.replace sh.sh_sockets port s;
        (match s.s_kind with
        | S_tcp conn ->
            conn_incr sh conn;
            if not s.s_established then Hashtbl.replace sh.sh_embryonic conn s
        | S_udp | S_listen _ -> ());
        Mach.Mcheck.on (sys t) (fun c space ->
            Check.reinc_restored c ~space ~shard ~sock:s.s_uid)
      end)
    t.port_sock;
  (* ephemeral allocator: high-water hint from the registry, free list =
     unheld residue-class ports below it *)
  let hint =
    Hashtbl.fold
      (fun p _ acc -> if mine p then max acc (p + stride) else acc)
      t.port_owner
      (ephemeral_base + shard)
  in
  sh.sh_port_hint <- hint;
  let free = ref [] in
  let p = ref (ephemeral_base + shard) in
  while !p < hint do
    if not (Hashtbl.mem t.port_owner !p) then free := !p :: !free;
    p := !p + stride
  done;
  sh.sh_free_ports <- !free;
  (* rights residue: registry claims with no socket rebuilt behind them *)
  Hashtbl.iter
    (fun port owner ->
      if owner = shard && not (Hashtbl.mem sh.sh_sockets port) then
        Mach.Mcheck.on (sys t) (fun c space ->
            Check.reinc_rights_residue c ~space ~shard ~port
              ~pname:(Printf.sprintf "net:%d" port)))
    t.port_owner;
  Mach.Mcheck.on (sys t) (fun c space ->
      Check.reinc_shard_reborn c ~space ~shard);
  sh.sh_generation <- sh.sh_generation + 1;
  sh.sh_dead <- false;
  t.reincarnations <- t.reincarnations + 1;
  (match t.netisr_task with
  | Some task when nshards t > 1 -> spawn_netisr t task sh
  | _ -> ());
  (* anything that arrived for rebuilt sockets while we were down is
     gone; wake blocked receivers so closed-loop clients re-drive *)
  Hashtbl.iter (fun _ s -> wake_sock t s) sh.sh_sockets

let shard_dead t ~shard = t.shards.(shard).sh_dead
let shard_generation t ~shard = t.shards.(shard).sh_generation
let reboot_drops t =
  Array.fold_left (fun acc sh -> acc + sh.sh_reboot_drops) 0 t.shards
let shard_reincarnations t = t.reincarnations

(* --- raw wire injection (attack/storm harness) --------------------------- *)

(* Inject a datagram as if a remote client sent it: the packet enters
   at the wire edge — no transmit-side walk is charged anywhere, since
   an external sender's stack runs on the client's hardware, not this
   machine — and delivery steers by the normal hash.  [src_port] is
   free-form, so one generator can impersonate thousands of clients. *)
let inject_udp t ~src_port ~dst_port ~bytes =
  wire_send t
    { p_proto = Udp; p_src = src_port; p_dst = dst_port; p_bytes = bytes;
      p_conn = 0; p_zc = bytes >= zc_threshold; p_chunks = 1; p_sent = 0 }

(* Inject a bare SYN that no local socket backs: the listener will
   accept and SYNACK into the void — the half-open load of a SYN storm
   or a slowloris client.  Caller owns conn-id uniqueness (use ids far
   above the strided allocator, e.g. >= 1_000_000). *)
let inject_syn t ~src_port ~dst_port ~conn =
  wire_send t
    { p_proto = Tcp_syn; p_src = src_port; p_dst = dst_port; p_bytes = 0;
      p_conn = conn; p_zc = false; p_chunks = 1; p_sent = 0 }

(* --- construction -------------------------------------------------------- *)

let create ?shards ?(backlog = default_backlog) kernel ~style =
  let objrt = Finegrain.create kernel ~style ~name:"net" in
  (* the framework hierarchy: deep for fine-grained reuse *)
  let base = Finegrain.define_class objrt ~name:"TObject" () in
  let stream = Finegrain.define_class objrt ~name:"TStream" ~super:base () in
  let proto_k =
    Finegrain.define_class objrt ~name:"TProtocolLayer" ~super:stream ()
  in
  let eth = Finegrain.define_class objrt ~name:"TEthernet" ~super:proto_k () in
  let ip = Finegrain.define_class objrt ~name:"TInternet" ~super:proto_k () in
  let transport =
    Finegrain.define_class objrt ~name:"TTransport" ~super:proto_k ()
  in
  let sock_k = Finegrain.define_class objrt ~name:"TSocket" ~super:stream () in
  let classes = [| eth; ip; transport; sock_k |] in
  let n =
    match shards with
    | Some n ->
        if n < 1 then invalid_arg "Netserver.create: shards must be >= 1";
        n
    | None -> Machine.ncpus kernel.Mach.Kernel.machine
  in
  let shard i =
    {
      sh_id = i;
      sh_sockets = Hashtbl.create 32;
      sh_conns = Hashtbl.create 32;
      sh_embryonic = Hashtbl.create 8;
      sh_layers = Array.map (Finegrain.new_object objrt) classes;
      sh_rx = Queue.create ();
      sh_wake_pending = false;
      sh_thread = None;
      sh_next_conn = i + 1;
      sh_port_hint = ephemeral_base + i;
      sh_free_ports = [];
      sh_delivered = 0;
      sh_batches = 0;
      sh_dead = false;
      sh_generation = 0;
      sh_reboot_drops = 0;
    }
  in
  let t =
    {
      kernel;
      objrt;
      shards = Array.init n shard;
      port_owner = Hashtbl.create 64;
      port_sock = Hashtbl.create 64;
      backlog;
      next_uid = 1;
      packets = 0;
      checksummed = 0;
      zc_sends = 0;
      syn_drops = 0;
      wire_drops = 0;
      reaped = 0;
      registry_msgs = 0;
      xshard_accepts = 0;
      probe = None;
      netisr_task = None;
      reincarnations = 0;
    }
  in
  start_netisr t;
  t
