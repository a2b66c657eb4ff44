open Ktypes

let allocate (sys : Sched.t) ~receiver ~name =
  Ktext.exec1 sys.ktext Ktext.port_alloc_path;
  let port =
    {
      port_id = sys.next_port_id;
      pname = name;
      dead = false;
      receiver = Some receiver;
      msg_queue = Queue.create ();
      q_limit = 5;
      waiting_receivers = Queue.create ();
      waiting_senders = Queue.create ();
      pending = [||];
      npending = 0;
      waiting_servers = Queue.create ();
      servers = [];
      served_local = 0;
      served_crossed = 0;
      dead_watchers = [];
    }
  in
  sys.next_port_id <- sys.next_port_id + 1;
  let entry = { re_port = port; re_right = Receive_right; re_refs = 1 } in
  Hashtbl.replace receiver.namespace receiver.next_name entry;
  receiver.next_name <- receiver.next_name + 1;
  Mcheck.right_allocated sys receiver port;
  port

let find_entry task port =
  Hashtbl.fold
    (fun name entry acc ->
      match acc with
      | Some _ -> acc
      | None -> if entry.re_port == port then Some (name, entry) else None)
    task.namespace None

(* Rights form a strict hierarchy: a receive right subsumes a send
   right, which subsumes a send-once right.  Inserting a right a task
   already holds must never weaken the entry — only upgrade it. *)
let right_order = function
  | Receive_right -> 2
  | Send_right -> 1
  | Send_once_right -> 0

let insert_right (sys : Sched.t) task port right =
  Ktext.exec1 sys.ktext Ktext.cap_translate;
  match find_entry task port with
  | Some (name, entry) ->
      entry.re_refs <- entry.re_refs + 1;
      if right_order right > right_order entry.re_right then
        entry.re_right <- right;
      Mcheck.right_inserted sys task port ~right ~now:entry.re_right;
      name
  | None ->
      let name = task.next_name in
      task.next_name <- task.next_name + 1;
      Hashtbl.replace task.namespace name
        { re_port = port; re_right = right; re_refs = 1 };
      Mcheck.right_inserted sys task port ~right ~now:right;
      name

let lookup task name = Hashtbl.find_opt task.namespace name

let lookup_port task port =
  Option.map fst (find_entry task port)

let deallocate_right (sys : Sched.t) task name =
  Ktext.exec1 sys.ktext Ktext.cap_translate;
  match Hashtbl.find_opt task.namespace name with
  | None ->
      (* the task freed a name it no longer holds: report the misuse
         through Machcheck instead of just failing silently *)
      Mcheck.dealloc_missing sys task ~name;
      Kern_invalid_name
  | Some entry ->
      entry.re_refs <- entry.re_refs - 1;
      if entry.re_refs <= 0 then Hashtbl.remove task.namespace name;
      Mcheck.right_deallocated sys task entry.re_port;
      Kern_success

(* Move one reference of a right between port spaces: the sender's
   reference is consumed, the destination gains one.  This is the
   checkable form of handing a capability to another task (the implicit
   transfers in [Ipc]/[Rpc] message rights go through [insert_right] on
   the receive side). *)
let move_right (sys : Sched.t) ~from ~into port =
  Ktext.exec1 sys.ktext Ktext.cap_translate;
  match find_entry from port with
  | None -> Kern_invalid_name
  | Some (name, entry) ->
      let right = entry.re_right in
      entry.re_refs <- entry.re_refs - 1;
      if entry.re_refs <= 0 then Hashtbl.remove from.namespace name;
      let now =
        match find_entry into port with
        | Some (_, e) ->
            e.re_refs <- e.re_refs + 1;
            if right_order right > right_order e.re_right then
              e.re_right <- right;
            e.re_right
        | None ->
            let n = into.next_name in
            into.next_name <- into.next_name + 1;
            Hashtbl.replace into.namespace n
              { re_port = port; re_right = right; re_refs = 1 };
            right
      in
      Mcheck.right_moved sys ~from_task:from ~to_task:into port right ~now;
      Kern_success

let request_notification (sys : Sched.t) port f =
  Ktext.exec1 sys.ktext Ktext.notify_path;
  if port.dead then f ()
  else port.dead_watchers <- f :: port.dead_watchers

let drain_wakeall sys q =
  Queue.iter (fun th -> Sched.wake sys ~result:Kern_port_dead th) q;
  Queue.clear q

let destroy (sys : Sched.t) port =
  if not port.dead then begin
    Ktext.exec1 sys.ktext Ktext.port_dealloc_path;
    port.dead <- true;
    Mcheck.port_destroyed sys port;
    (* The receive right dies with the port: drop the receiver's
       namespace entry rather than leaving a dangling dead-port name —
       the residue that made restarted servers look leaky. *)
    (match port.receiver with
    | Some task -> (
        match find_entry task port with
        | Some (name, entry) ->
            Hashtbl.remove task.namespace name;
            for _ = 1 to entry.re_refs do
              Mcheck.right_deallocated sys task port
            done
        | None -> ())
    | None -> ());
    port.receiver <- None;
    (* queued messages die with the port: release their kernel buffers *)
    Queue.iter
      (fun msg -> if msg.msg_kbuf <> 0 then Ktext.buffer_free sys.ktext msg.msg_kbuf)
      port.msg_queue;
    Queue.clear port.msg_queue;
    drain_wakeall sys port.waiting_receivers;
    drain_wakeall sys port.waiting_senders;
    drain_wakeall sys port.waiting_servers;
    for i = 0 to port.npending - 1 do
      match port.pending.(i) with
      | Some rx when not rx.rx_abandoned ->
          Sched.wake sys ~result:Kern_port_dead rx.rx_client
      | Some _ | None -> ()
    done;
    Array.fill port.pending 0 port.npending None;
    port.npending <- 0;
    (* deliver dead-name notifications last, once the port is fully
       drained, so a supervisor restarting the server sees clean state *)
    let watchers = port.dead_watchers in
    port.dead_watchers <- [];
    List.iter
      (fun f ->
        Ktext.exec1 sys.ktext Ktext.notify_path;
        f ())
      watchers
  end

let rights_held task = Hashtbl.length task.namespace

(* Fault-plan consultation.  A disabled plan costs nothing; an injected
   decision charges the fault-bookkeeping chunk so perturbation shows up
   in the measurements only when faults actually fire. *)
let fault_on_send (sys : Sched.t) port =
  match sys.faults with
  | None -> Fault.M_pass
  | Some plan -> (
      match Fault.on_send plan ~port:port.pname with
      | Fault.M_pass -> Fault.M_pass
      | d ->
          Ktext.exec1 sys.ktext Ktext.fault_inject;
          d)

let fault_on_request (sys : Sched.t) port =
  match sys.faults with
  | None -> Fault.S_continue
  | Some plan -> (
      match Fault.on_request plan ~port:port.pname with
      | Fault.S_continue -> Fault.S_continue
      | d ->
          Ktext.exec1 sys.ktext Ktext.fault_inject;
          d)
