open Ktypes

(* --- pending calls ------------------------------------------------------- *)

let push_pending port rx =
  let n = port.npending in
  if n = Array.length port.pending then begin
    let grown = Array.make (Int.max 4 (2 * n)) None in
    Array.blit port.pending 0 grown 0 n;
    port.pending <- grown
  end;
  port.pending.(n) <- Some rx;
  port.npending <- n + 1

(* Take the call at [i] out, closing the gap in arrival order. *)
let remove_at port i =
  let last = port.npending - 1 in
  Array.blit port.pending (i + 1) port.pending i (last - i);
  port.pending.(last) <- None;
  port.npending <- last

(* Drop one exchange from a port's pending calls (the client abandoned
   it before any server picked it up). *)
let remove_pending port rx =
  let rec find i =
    if i < port.npending then
      match port.pending.(i) with
      | Some r when r == rx -> remove_at port i
      | Some _ | None -> find (i + 1)
  in
  find 0

let receive_reason = "rpc-receive"

(* Whether a serve thread homed on [cpu] will take that CPU's commuting
   calls itself: one is live and not blocked outside receive (on the
   disk, on a lock, in a wedge). *)
let rec home_serves cpu = function
  | [] -> false
  | th :: rest ->
      (th.affinity = cpu
      &&
      match th.state with
      | Th_running | Th_runnable -> true
      | Th_blocked reason -> String.equal reason receive_reason
      | Th_terminated -> false)
      || home_serves cpu rest

(* The one dequeue rule: the oldest pending call that is ordered, or
   from the taker's CPU, or from a CPU whose serve threads will not take
   it (none live, or all blocked outside receive).  Ordered calls are
   thus taken in arrival order; a commuting call waits for a server on
   its own CPU while one will take it.  The taken slot's option is
   returned as stored, so a take allocates nothing. *)
let rec take_from port (th : thread) i =
  if i >= port.npending then None
  else
    match port.pending.(i) with
    | Some rx when rx.rx_abandoned ->
        remove_at port i;  (* the client gave up: drop it *)
        take_from port th i
    | Some rx as taken
      when (not rx.rx_commutes) || rx.rx_cpu = th.affinity
           || not (home_serves rx.rx_cpu port.servers) ->
        remove_at port i;
        taken
    | Some _ | None -> take_from port th (i + 1)

let next_call port th = take_from port th 0

(* Wake a server for a call just queued.  A commuting call is left to
   the serve thread homed on its CPU while that thread will take it
   (woken if it waits in receive); any other call wakes a waiting server
   homed on the caller's CPU, else the one waiting longest. *)
let wake_server (sys : Sched.t) port rx =
  ignore
    (if rx.rx_commutes && home_serves rx.rx_cpu port.servers then
       Sched.wake_home sys port.waiting_servers ~cpu:rx.rx_cpu
     else Sched.wake_one_on sys port.waiting_servers ~cpu:sys.active
      : bool)

(* Page-aligned payloads at or above the threshold are cheaper to remap
   than to copy; a [Copy] request silently upgrades to [Cow] (never
   [Move] — the caller may still own the buffer).  Explicit modes are
   honoured as given. *)
let select_mode (addr, bytes, mode) =
  match mode with
  | Copy when page_aligned ~addr ~bytes && bytes >= remap_threshold ->
      (addr, bytes, Cow)
  | _ -> (addr, bytes, mode)

(* Transfer one out-of-line region and return the receiver's view of it.
   [Copy] is the rework's physical copy (per-byte, lands in the
   receiver's scratch buffer); [Move]/[Cow] remap pages and rewrite the
   region address to where they appeared in the receiver's map. *)
let transfer_ool (sys : Sched.t) ~src_task ~dst_task (addr, bytes, mode) =
  match mode with
  | Copy ->
      Ktext.copy sys.Sched.ktext ~src:addr ~dst:(default_buf dst_task) ~bytes;
      { ool_addr = addr; ool_bytes = bytes; ool_mode = Copy; ool_copied = true }
  | Move ->
      let dst = Vm.remap_move sys ~src_task ~addr ~bytes ~dst_task in
      { ool_addr = dst; ool_bytes = bytes; ool_mode = Move; ool_copied = true }
  | Cow ->
      let dst = Vm.remap_cow sys ~src_task ~addr ~bytes ~dst_task in
      { ool_addr = dst; ool_bytes = bytes; ool_mode = Cow; ool_copied = false }

let copy_request (sys : Sched.t) port client (mb : message_builder) =
  let k = sys.ktext in
  match port.receiver with
  | Some server_task ->
      let src = Option.value ~default:(default_buf client) mb.mb_inline_src in
      Ktext.copy k ~src ~dst:(default_buf server_task) ~bytes:mb.mb_inline_bytes;
      (* by-reference large data: one physical copy — or, when the region
         qualifies, a zero-copy remap — sender to receiver *)
      List.map
        (fun r ->
          transfer_ool sys ~src_task:client ~dst_task:server_task
            (select_mode r))
        mb.mb_ool
  | None -> []

let call (sys : Sched.t) port ?deadline ?(commutes = false)
    (mb : message_builder) =
  let th = Sched.self () in
  let client = th.t_task in
  let frame = th.stack_base in
  let k = sys.ktext in
  (* client stub and the rework's light kernel entry *)
  Ktext.exec_in k client.text ~offset:0x100 ~bytes:128;
  Ktext.exec k ~frame
    [ Ktext.rpc_entry; Ktext.syscall_dispatch; Ktext.rpc_send;
      Ktext.cap_translate ];
  if port.dead then begin
    Ktext.exec1 k ~frame Ktext.trap_exit;
    Error Kern_port_dead
  end
  else begin
    let ool = copy_request sys port client mb in
    List.iter
      (fun (_r : port * right) -> Ktext.exec1 k ~frame Ktext.cap_translate)
      mb.mb_rights;
    let msg =
      {
        msg_op = mb.mb_op;
        msg_inline_bytes = mb.mb_inline_bytes;
        msg_payload = mb.mb_payload;
        msg_reply_to = None;
        msg_ool = ool;
        msg_rights = mb.mb_rights;
        msg_kbuf = 0;
        msg_sender = Some client;
        msg_sent = 0.;
      }
    in
    let rx =
      {
        rx_client = th;
        rx_request = msg;
        rx_reply = None;
        rx_cpu = sys.active;
        rx_commutes = commutes;
        rx_abandoned = false;
      }
    in
    let exchange () =
      (match Port.fault_on_send sys port with
      | Fault.M_drop ->
          (* lost on the wire: nothing is queued, the client just waits
             (only a deadline gets it back) *)
          ()
      | (Fault.M_delay _ | Fault.M_pass) as fate ->
          (match fate with
          | Fault.M_delay cycles -> ignore (Clock.sleep_for sys ~cycles)
          | _ -> ());
          msg.msg_sent <- Sched.now sys;
          push_pending port rx;
          Ktext.exec1 k ~frame Ktext.rpc_handoff;
          wake_server sys port rx);
      (* wait-for edge towards the serving task; narrowed to the exact
         server thread once one picks the exchange up (see [dequeue]) *)
      match
        Sched.wait sys th
          ~rdesc:"rpc-call" ~rname:port.pname
          ~holders:(Mcheck.receiver_tids sys port) "rpc-call"
      with
      | Kern_success -> (
          (* resumed by the server's reply; return to user *)
          Ktext.exec1 k ~frame Ktext.trap_exit;
          match rx.rx_reply with
          | Some reply ->
              (* rights carried by the reply land in the client's space *)
              List.iter
                (fun ((p, r) : port * right) ->
                  ignore (Port.insert_right sys client p r : int))
                reply.msg_rights;
              Ok reply
          | None -> Error Kern_aborted)
      | err ->
          Ktext.exec1 k ~frame Ktext.trap_exit;
          Error err
    in
    let result =
      match deadline with
      | None -> exchange ()
      | Some cycles -> Clock.with_deadline sys ~cycles (fun () -> exchange ())
    in
    (match result with
    | Ok _ -> ()
    | Error _ ->
        (* the client has moved on: a server must neither process this
           exchange nor wake the thread out of some unrelated wait *)
        rx.rx_abandoned <- true;
        remove_pending port rx);
    result
  end

let call_retry (sys : Sched.t) ?attempts ?deadline ?backoff ?commutes ~resolve
    mb =
  Backoff.retry sys ?attempts ?deadline ?backoff ~resolve (fun port ~deadline ->
      call sys port ~deadline ?commutes mb)

(* Dequeue a call by {!next_call}, blocking while none is eligible;
   charges the dequeue handoff, the return to user and the
   demultiplexing stub.  A running thread is in no [waiting_servers]
   entry: whoever woke it took it out. *)
let rec dequeue (sys : Sched.t) port th frame =
  let k = sys.ktext in
  match next_call port th with
  | Some rx ->
      (* the call cannot be served before it was sent *)
      Sched.observe sys rx.rx_request.msg_sent;
      if rx.rx_cpu = sys.active then port.served_local <- port.served_local + 1
      else port.served_crossed <- port.served_crossed + 1;
      (* the client now waits on this exact thread, not the whole task *)
      (match sys.checks with
      | None -> ()
      | Some _ -> Mcheck.retarget sys rx.rx_client ~holders:[ th.tid ]);
      (* rights carried by the request land in the server's space *)
      (match rx.rx_request.msg_rights with
      | [] -> ()
      | rights ->
          List.iter
            (fun ((p, r) : port * right) ->
              ignore (Port.insert_right sys th.t_task p r : int))
            rights);
      Ktext.exec k ~frame [ Ktext.rpc_handoff; Ktext.trap_exit ];
      Ktext.exec_in k th.t_task.text ~offset:0x140 ~bytes:192;
      Ok rx
  | None ->
      if port.dead then begin
        Sched.dequeue_waiter th port.waiting_servers;
        Ktext.exec1 k ~frame Ktext.trap_exit;
        Error Kern_port_dead
      end
      else
        (* served by any future caller: node only, no holder edge *)
        match
          Sched.wait sys ~q:port.waiting_servers th
            ~rdesc:"rpc-receive" ~rname:port.pname
            ~holders:[] receive_reason
        with
        | Kern_success -> dequeue sys port th frame
        | err ->
            Ktext.exec1 k ~frame Ktext.trap_exit;
            Error err

let receive (sys : Sched.t) port =
  let th = Sched.self () in
  let server = th.t_task in
  let frame = th.stack_base in
  let k = sys.ktext in
  (* server loop head and kernel entry *)
  Ktext.exec_in k server.text ~offset:0x000 ~bytes:128;
  Ktext.exec k ~frame [ Ktext.rpc_entry; Ktext.syscall_dispatch ];
  dequeue sys port th frame

let finish_reply (sys : Sched.t) rx (mb : message_builder) server =
  let k = sys.ktext in
  let client = rx.rx_client.t_task in
  let src = Option.value ~default:(default_buf server) mb.mb_inline_src in
  Ktext.copy k ~src ~dst:(default_buf client) ~bytes:mb.mb_inline_bytes;
  (* out-of-line reply data rides the same mode-aware path, server to
     client (the file server's zero-copy reads reply with Cow regions) *)
  let ool =
    List.map
      (fun r ->
        transfer_ool sys ~src_task:server ~dst_task:client (select_mode r))
      mb.mb_ool
  in
  rx.rx_reply <-
    Some
      {
        msg_op = mb.mb_op;
        msg_inline_bytes = mb.mb_inline_bytes;
        msg_payload = mb.mb_payload;
        msg_reply_to = None;
        msg_ool = ool;
        msg_rights = mb.mb_rights;
        msg_kbuf = 0;
        msg_sender = Some server;
        msg_sent = 0.;
      };
  (* a timed-out client is blocked in some unrelated wait by now: waking
     it would corrupt that wait, so the late reply is simply dropped *)
  if not rx.rx_abandoned then Sched.wake sys rx.rx_client

let reply (sys : Sched.t) rx (mb : message_builder) =
  let th = Sched.self () in
  let server = th.t_task in
  let frame = th.stack_base in
  let k = sys.ktext in
  Ktext.exec k ~frame
    [ Ktext.rpc_entry; Ktext.syscall_dispatch; Ktext.rpc_reply ];
  finish_reply sys rx mb server;
  Ktext.exec1 k ~frame Ktext.rpc_handoff

let reply_receive (sys : Sched.t) rx (mb : message_builder) port =
  let th = Sched.self () in
  let server = th.t_task in
  let frame = th.stack_base in
  let k = sys.ktext in
  (* one kernel entry covers the reply and the next receive — the
     combined primitive a synchronous-handoff kernel lives on *)
  Ktext.exec k ~frame
    [ Ktext.rpc_entry; Ktext.syscall_dispatch; Ktext.rpc_reply ];
  finish_reply sys rx mb server;
  dequeue sys port th frame

(* The server loop exits only when the *service* port dies.  One client
   aborting its call (or any other per-exchange failure) must not take
   the server down for everyone else. *)
let serve (sys : Sched.t) ?beat port handler =
  port.servers <- Sched.self () :: port.servers;
  (* each serve thread stamps its own slot of the beat *)
  let slot = match beat with Some b -> Health.join b | None -> -1 in
  let busy () =
    Option.iter
      (fun (b : Health.beat) ->
        b.Health.hb_busy.(slot) <- Machine.global_now sys.machine)
      beat
  in
  let idle () =
    Option.iter
      (fun (b : Health.beat) ->
        b.Health.hb_served <- b.Health.hb_served + 1;
        b.Health.hb_busy.(slot) <- -1)
      beat
  in
  let rec next () =
    if port.dead then ()
    else
      match receive sys port with
      | Error Kern_port_dead -> ()
      | Error _ -> next ()
      | Ok rx -> step rx
  and step rx =
    busy ();
    match Port.fault_on_request sys port with
    | Fault.S_crash ->
        (* simulated crash mid-request: the exchange is abandoned (the
           client must time out) and the receive right dies *)
        Port.destroy sys port
    | Fault.S_kill ->
        (* scripted port kill: the call in hand is answered, then the
           service port is torn down *)
        reply sys rx (run_handler handler rx.rx_request);
        Port.destroy sys port
    | (Fault.S_continue | Fault.S_wedge _) as d ->
        (match d with
        | Fault.S_wedge cycles ->
            (* live-but-stuck: the request is held, the beat's busy
               stamp ages, and only a watchdog can tell.  Calls left for
               this thread are now any waiting sibling's to take. *)
            if port.npending > 0 then
              ignore
                (Sched.wake_one_on sys port.waiting_servers ~cpu:sys.active
                  : bool);
            ignore (Clock.sleep_for sys ~cycles)
        | _ -> ());
        if port.dead then ()
        else begin
          let mb = run_handler handler rx.rx_request in
          idle ();
          match reply_receive sys rx mb port with
          | Ok nxt -> step nxt
          | Error Kern_port_dead -> ()
          | Error _ -> next ()
        end
  in
  next ()

let pending_calls port = port.npending
let served_local port = port.served_local
let served_crossed port = port.served_crossed
