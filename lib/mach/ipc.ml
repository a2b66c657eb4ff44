open Ktypes

let user_entry (sys : Sched.t) th =
  Trap.enter sys th [ Ktext.syscall_dispatch; Ktext.mach_msg_entry ]

let user_exit (sys : Sched.t) frame =
  Ktext.exec sys.ktext ~frame [ Ktext.mach_msg_exit; Ktext.trap_exit ]

let send (sys : Sched.t) port ?reply_to (mb : message_builder) =
  let th = Sched.self () in
  let sender = th.t_task in
  let frame = th.stack_base in
  user_entry sys th;
  if port.dead then begin
    user_exit sys frame;
    Kern_port_dead
  end
  else begin
    let k = sys.ktext in
    (* copy the inline body into a kernel buffer *)
    Ktext.exec1 k ~frame Ktext.msg_copyin;
    let kbuf = Ktext.buffer_alloc k ~bytes:(Int.max 64 mb.mb_inline_bytes) in
    let src = Option.value ~default:(default_buf sender) mb.mb_inline_src in
    Ktext.copy k ~src ~dst:kbuf ~bytes:mb.mb_inline_bytes;
    (* transfer rights one by one *)
    List.iter
      (fun (_right : port * right) ->
        Ktext.exec1 k ~frame Ktext.right_transfer)
      mb.mb_rights;
    (match reply_to with
    | Some _ -> Ktext.exec1 k ~frame Ktext.right_transfer
    | None -> ());
    let msg =
      {
        msg_op = mb.mb_op;
        msg_inline_bytes = mb.mb_inline_bytes;
        msg_payload = mb.mb_payload;
        msg_reply_to = reply_to;
        msg_ool =
          List.map
            (fun (addr, bytes, mode) ->
              { ool_addr = addr; ool_bytes = bytes; ool_mode = mode;
                ool_copied = false })
            mb.mb_ool;
        msg_rights = mb.mb_rights;
        msg_kbuf = kbuf;
        msg_sender = Some sender;
        msg_sent = 0.;
      }
    in
    (* block while the queue is full (classic mach_msg behaviour); room
       opens up only if the receiving task runs *)
    let rec wait_for_room () =
      if port.dead then begin
        Sched.dequeue_waiter th port.waiting_senders;
        Kern_port_dead
      end
      else if Queue.length port.msg_queue >= port.q_limit then
        match
          Sched.wait sys ~q:port.waiting_senders th
            ~rdesc:"send-room" ~rname:port.pname
            ~holders:(Mcheck.receiver_tids sys port) "msg-send-queue-full"
        with
        | Kern_success -> wait_for_room ()
        | err -> err
      else begin
        Sched.dequeue_waiter th port.waiting_senders;
        Kern_success
      end
    in
    match Port.fault_on_send sys port with
    | Fault.M_drop ->
        (* the wire ate the message: the sender believes it succeeded *)
        Ktext.buffer_free k kbuf;
        user_exit sys frame;
        Kern_success
    | (Fault.M_delay _ | Fault.M_pass) as fate -> (
        (match fate with
        | Fault.M_delay cycles -> ignore (Clock.sleep_for sys ~cycles)
        | _ -> ());
        match wait_for_room () with
        | Kern_success ->
            Ktext.exec1 k ~frame Ktext.msg_enqueue;
            msg.msg_sent <- Sched.now sys;
            Queue.add msg port.msg_queue;
            ignore (Sched.wake_one sys port.waiting_receivers : bool);
            user_exit sys frame;
            Kern_success
        | err ->
            (* message never entered a queue: release its kernel buffer *)
            Ktext.buffer_free k kbuf;
            user_exit sys frame;
            err)
  end

let receive (sys : Sched.t) port =
  let th = Sched.self () in
  let receiver = th.t_task in
  let frame = th.stack_base in
  user_entry sys th;
  let k = sys.ktext in
  Ktext.exec1 k ~frame Ktext.receive_path;
  let rec get () =
    match Queue.take_opt port.msg_queue with
    | Some msg ->
        Sched.dequeue_waiter th port.waiting_receivers;
        Sched.observe sys msg.msg_sent;
        Ok msg
    | None ->
        if port.dead then begin
          Sched.dequeue_waiter th port.waiting_receivers;
          Error Kern_port_dead
        end
        else
          (* a receive can be satisfied by any future sender: no holder
             edge, but the node must exist so a kill can be audited *)
          match
            Sched.wait sys ~q:port.waiting_receivers th
              ~rdesc:"receive" ~rname:port.pname
              ~holders:[] "msg-receive"
          with
          | Kern_success -> get ()
          | err -> Error err
  in
  match get () with
  | Error err ->
      user_exit sys frame;
      Error err
  | Ok msg ->
      Ktext.exec k ~frame [ Ktext.msg_dequeue; Ktext.msg_copyout ];
      Mcheck.buf_use sys msg.msg_kbuf;
      Ktext.copy k ~src:msg.msg_kbuf ~dst:(default_buf receiver)
        ~bytes:msg.msg_inline_bytes;
      (* the inline body has landed in the receiver: the kernel buffer
         goes back on the free list so sustained traffic can't exhaust
         the msg-buffers region *)
      Ktext.buffer_free k msg.msg_kbuf;
      msg.msg_kbuf <- 0;
      (* carried rights land in the receiver's port space *)
      List.iter
        (fun ((p, r) : port * right) ->
          Ktext.exec1 k ~frame Ktext.right_transfer;
          ignore (Port.insert_right sys receiver p r : int))
        msg.msg_rights;
      (* out-of-line data: [Copy] arrives as the classic lazy
         copy-on-write mapping; [Move]/[Cow] take the zero-copy remap
         path (per map entry plus a shootdown, never per page) *)
      let msg =
        match msg.msg_sender with
        | Some sender when msg.msg_ool <> [] ->
            let ool =
              List.map
                (fun r ->
                  let addr =
                    match r.ool_mode with
                    | Copy ->
                        Vm.virtual_copy sys ~src_task:sender ~addr:r.ool_addr
                          ~bytes:r.ool_bytes ~dst_task:receiver
                    | Move ->
                        Vm.remap_move sys ~src_task:sender ~addr:r.ool_addr
                          ~bytes:r.ool_bytes ~dst_task:receiver
                    | Cow ->
                        Vm.remap_cow sys ~src_task:sender ~addr:r.ool_addr
                          ~bytes:r.ool_bytes ~dst_task:receiver
                  in
                  { r with ool_addr = addr })
                msg.msg_ool
            in
            { msg with msg_ool = ool }
        | Some _ | None -> msg
      in
      ignore (Sched.wake_one sys port.waiting_senders : bool);
      user_exit sys frame;
      Ok msg

(* The classic round trip.  Reply-port management was a per-interaction
   tax the paper laments; the cache below keeps one reply port per
   thread and reuses it while it stays alive, charging the far cheaper
   lookup path instead of allocate/setup/destroy. *)
let reply_port_for (sys : Sched.t) th =
  let k = sys.ktext in
  let client = th.t_task in
  match th.reply_port_cache with
  | Some rp when not rp.dead ->
      sys.reply_cache_hits <- sys.reply_cache_hits + 1;
      Ktext.exec1 k ~frame:th.stack_base Ktext.reply_port_reuse;
      rp
  | Some _ | None ->
      sys.reply_cache_misses <- sys.reply_cache_misses + 1;
      let rp = Port.allocate sys ~receiver:client ~name:"reply" in
      Ktext.exec1 k ~frame:th.stack_base Ktext.reply_port_setup;
      th.reply_port_cache <- Some rp;
      rp

let call (sys : Sched.t) ?deadline port mb =
  let th = Sched.self () in
  let reply_port = reply_port_for sys th in
  let exchange () =
    match send sys port ~reply_to:reply_port mb with
    | Kern_success -> receive sys reply_port
    | err -> Error err
  in
  let result =
    match deadline with
    | None -> exchange ()
    | Some cycles -> Clock.with_deadline sys ~cycles (fun () -> exchange ())
  in
  (match result with
  | Ok _ -> ()
  | Error _ ->
      (* the interaction may still be in flight — a late reply landing on
         the cached port would be mistaken for the answer to the *next*
         call.  Retire the port so stale replies die with it. *)
      Port.destroy sys reply_port;
      th.reply_port_cache <- None);
  result

let call_retry (sys : Sched.t) ?attempts ?deadline ?backoff ~resolve mb =
  Backoff.retry sys ?attempts ?deadline ?backoff ~resolve (fun port ~deadline ->
      call sys ~deadline port mb)

let reply_cache_hits (sys : Sched.t) = sys.reply_cache_hits
let reply_cache_misses (sys : Sched.t) = sys.reply_cache_misses

let serve_one (sys : Sched.t) port handler =
  match receive sys port with
  | Error err -> err
  | Ok msg -> (
      let reply = run_handler handler msg in
      match msg.msg_reply_to with
      | Some rp -> send sys rp reply
      | None -> Kern_success)

(* The server loop exits only when the *service* port dies.  A dead
   client reply port, a full reply queue, or a spurious wake must not
   take the server down with it — one dead client would kill the
   service for everyone. *)
let serve (sys : Sched.t) port handler =
  let rec loop () =
    if port.dead then ()
    else
      match receive sys port with
      | Error Kern_port_dead -> ()
      | Error _ -> loop ()
      | Ok msg -> (
          match Port.fault_on_request sys port with
          | Fault.S_crash ->
              (* simulated server crash mid-request: the request is
                 abandoned (the client must time out) and the receive
                 right dies with the server *)
              Port.destroy sys port
          | Fault.S_kill ->
              (* scripted port kill: the request in hand is answered,
                 then the service port is torn down *)
              (match msg.msg_reply_to with
              | Some rp -> ignore (send sys rp (run_handler handler msg))
              | None -> ());
              Port.destroy sys port
          | (Fault.S_continue | Fault.S_wedge _) as d ->
              (match d with
              | Fault.S_wedge cycles ->
                  (* live-but-stuck: hold the request, stay receivable *)
                  ignore (Clock.sleep_for sys ~cycles)
              | _ -> ());
              let reply = run_handler handler msg in
              (match msg.msg_reply_to with
              | Some rp -> ignore (send sys rp reply)
              | None -> ());
              loop ())
  in
  loop ()
