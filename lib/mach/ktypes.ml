(* Core kernel data structures.

   The microkernel's objects — tasks, threads, ports, messages, address
   maps — reference each other cyclically (a thread belongs to a task, a
   task holds a port space full of ports, a port remembers blocked
   threads), so they are defined in a single recursive knot here and
   manipulated by the sibling modules.  Nothing in this module charges
   simulated cost; it is pure representation. *)

(* Result codes, following Mach's kern_return_t. *)
type kern_return =
  | Kern_success
  | Kern_invalid_name
  | Kern_invalid_right
  | Kern_invalid_argument
  | Kern_no_space
  | Kern_protection_failure
  | Kern_port_dead
  | Kern_timed_out
  | Kern_not_receiver
  | Kern_resource_shortage
  | Kern_aborted
  | Kern_unavailable
      (* the service exists but is degraded (crash-looping, demoted by
         the supervisor): fail fast instead of letting clients hang *)

let kern_return_to_string = function
  | Kern_success -> "KERN_SUCCESS"
  | Kern_invalid_name -> "KERN_INVALID_NAME"
  | Kern_invalid_right -> "KERN_INVALID_RIGHT"
  | Kern_invalid_argument -> "KERN_INVALID_ARGUMENT"
  | Kern_no_space -> "KERN_NO_SPACE"
  | Kern_protection_failure -> "KERN_PROTECTION_FAILURE"
  | Kern_port_dead -> "KERN_PORT_DEAD"
  | Kern_timed_out -> "KERN_TIMED_OUT"
  | Kern_not_receiver -> "KERN_NOT_RECEIVER"
  | Kern_resource_shortage -> "KERN_RESOURCE_SHORTAGE"
  | Kern_aborted -> "KERN_ABORTED"
  | Kern_unavailable -> "KERN_UNAVAILABLE"

exception Kern_error of kern_return

type right = Receive_right | Send_right | Send_once_right

type protection = { read : bool; write : bool; execute : bool }

let prot_rw = { read = true; write = true; execute = false }
let prot_ro = { read = true; write = false; execute = false }
let prot_rx = { read = true; write = false; execute = true }

(* Message payloads carry real semantic content between clients and
   servers.  The type is extensible so that each server (file server,
   name service, personalities...) declares its own request/reply
   constructors without the microkernel knowing about them. *)
type payload = ..

type payload +=
  | P_unit
  | P_int of int
  | P_string of string
  | P_bytes of bytes
  | P_error of kern_return

(* Where a server thread stands between taking a request and building
   its reply: locks it takes meanwhile are held until the reply, shared
   when the request only reads. *)
type request = No_request | Shared_request | Exclusive_request

type thread_state =
  | Th_runnable
  | Th_running
  | Th_blocked of string  (* wait reason, for diagnosis *)
  | Th_terminated

type cont_state =
  | Not_started
  | Paused_unit of (unit, unit) Effect.Deep.continuation
      (* suspended at a yield *)
  | Paused_result of (kern_return, unit) Effect.Deep.continuation
      (* suspended at a block; resumes with the waker's result *)
  | Finished

type thread = {
  tid : int;
  mutable tname : string;
  t_task : task;
  mutable state : thread_state;
  mutable cont : cont_state;
  mutable body : unit -> unit;
  mutable priority : int;
  mutable stack_base : int;  (* kernel-visible stack address, for costing *)
  mutable wake_result : kern_return;
      (* result seen by a blocked thread when woken (e.g. timeout) *)
  mutable reply_port_cache : port option;
      (* per-thread cached reply port, reused across Ipc.call round trips
         instead of allocate/destroy per interaction *)
  mutable affinity : int;
      (* CPU whose run queue owns this thread; only that CPU mutates the
         thread's scheduling state directly, everyone else sends messages *)
  mutable bound : bool;  (* pinned to [affinity]: never stolen or migrated *)
  mutable ready_at : float;
      (* simulated time the thread last became runnable (or last stopped
         running): no CPU may dispatch it at an earlier clock *)
  mutable request : request;
}

and task = {
  task_id : int;
  mutable task_name : string;
  mutable threads : thread list;
  mutable namespace : (int, right_entry) Hashtbl.t;  (* port space *)
  mutable next_name : int;
  vm : vm_map;
  text : Machine.Layout.region;
  data : Machine.Layout.region;
  mutable libraries : (string * Machine.Layout.region) list;
  mutable halted : bool;
  mutable personality : string;  (* informational: which OS owns it *)
}

and right_entry = { re_port : port; mutable re_right : right; mutable re_refs : int }

and port = {
  port_id : int;
  mutable pname : string;
  mutable dead : bool;
  mutable receiver : task option;
  (* Mach 3.0 IPC: queued messages and blocked receivers/senders. *)
  msg_queue : message Queue.t;
  mutable q_limit : int;
  waiting_receivers : thread Queue.t;
  waiting_senders : thread Queue.t;
  (* IBM RPC rework: synchronous exchanges, no message queue.  Calls no
     server has taken sit in [pending.(0) .. pending.(npending - 1)],
     oldest first; a server may take one from the middle, so this is an
     array it can close up without allocating, not a [Queue]. *)
  mutable pending : rpc_exchange option array;
  mutable npending : int;
  waiting_servers : thread Queue.t;
  mutable servers : thread list;  (* serve threads {!Rpc.serve} registered *)
  mutable served_local : int;  (* calls served on their caller's CPU *)
  mutable served_crossed : int;  (* calls served on another CPU *)
  (* dead-name notification: run when the port is destroyed, so a
     supervisor can learn that a server it watches has crashed *)
  mutable dead_watchers : (unit -> unit) list;
}

and message = {
  msg_op : int;  (* operation/selector id *)
  msg_inline_bytes : int;
  msg_payload : payload;
  msg_reply_to : port option;  (* Mach 3.0 only; removed in the rework *)
  msg_ool : ool_region list;
  msg_rights : (port * right) list;
  mutable msg_kbuf : int;  (* kernel buffer address while in transit *)
  msg_sender : task option;  (* for out-of-line mapping at receive time *)
  mutable msg_sent : float;
      (* the sender's clock when it queued the message for a receiver
         (0 until then, and for a reply handed straight to its caller):
         the receiver observes it before acting on the message *)
}

(* How an out-of-line region crosses the task boundary.  [Copy] is the
   rework's physical copy (per-byte cost); [Move] donates the sender's
   pages to the receiver, leaving the sender zero-filled; [Cow] maps the
   pages into the receiver copy-on-write.  Move/Cow are charged per map
   entry plus a TLB shootdown, never per byte. *)
and ool_mode = Copy | Move | Cow

and ool_region = {
  ool_addr : int;
  ool_bytes : int;
  ool_mode : ool_mode;
  mutable ool_copied : bool;  (* physical copy already materialised *)
}

and rpc_exchange = {
  rx_client : thread;
  rx_request : message;
  mutable rx_reply : message option;
  rx_cpu : int;  (* the CPU the client called from *)
  rx_commutes : bool;
      (* the call only reads: it may be served out of arrival order, by
         a server homed on [rx_cpu] *)
  mutable rx_abandoned : bool;
      (* the client gave up (timeout / abort): the server must neither
         process nor wake it — the thread has moved on to other waits *)
}

and vm_map = {
  map_id : int;
  mutable entries : vm_entry list;  (* sorted by start address *)
  mutable map_pmap_loaded : bool;
}

and vm_entry = {
  ent_start : int;
  ent_size : int;
  mutable ent_obj : vm_object;  (* remap/freeze may redirect the entry *)
  ent_offset : int;  (* offset of entry start within the object *)
  mutable ent_prot : protection;
  mutable ent_cow : bool;  (* writes must copy into a private page *)
  ent_eager : bool;  (* committed (OS/2 style) rather than lazy *)
  ent_coerced : bool;  (* shared at the same address everywhere *)
}

and vm_object = {
  obj_id : int;
  mutable obj_size : int;  (* bytes *)
  obj_pages : (int, page) Hashtbl.t;  (* page index within object *)
  mutable obj_backing : backing_store option;
  mutable obj_shadow_of : vm_object option;  (* COW source *)
  mutable obj_tag : string;  (* diagnostic: who owns this memory *)
      (* run when the last mapping of this object is torn down; the file
         server uses it to unpin cache pages it has mapped out *)
}

and page = {
  mutable pg_resident : bool;
  mutable pg_dirty : bool;
  mutable pg_wired : bool;
  mutable pg_written_back : bool;  (* has ever been paged out *)
  mutable pg_stamp : int;
      (* abstract page contents: the simulator carries no real bytes, so
         transfer correctness (COW breaks, move-leaves-zero) is asserted
         over this one-word summary.  0 = zero-filled. *)
}

and backing_store = {
  bs_name : string;
  bs_page_in : vm_object -> int -> (unit -> unit) -> unit;
      (* [bs_page_in obj index k] arranges for page [index] to become
         available and calls [k] when the (simulated) I/O completes. *)
  bs_page_out : vm_object -> int -> (unit -> unit) -> unit;
}

(* A Mach processor set: a named group of tasks (see [Host]). *)
type processor_set = { ps_name : string; mutable ps_tasks : task list }

type message_builder = {
  mb_op : int;
  mb_inline_bytes : int;
  mb_inline_src : int option;  (* sender buffer address, for copy costing *)
  mb_payload : payload;
  mb_ool : (int * int * ool_mode) list;  (* (addr, bytes, mode) vector *)
  mb_rights : (port * right) list;
}

let simple_message ?(op = 0) ?(inline_bytes = 0) ?inline_src
    ?(payload = P_unit) ?(ool = []) ?(ool_vec = []) ?(rights = []) () =
  {
    mb_op = op;
    mb_inline_bytes = inline_bytes;
    mb_inline_src = inline_src;
    mb_payload = payload;
    mb_ool = List.map (fun (a, b) -> (a, b, Copy)) ool @ ool_vec;
    mb_rights = rights;
  }

(* Where a task's inline message bodies land (and are copied from when
   the sender names no buffer), for copy costing. *)
let default_buf task = task.data.Machine.Layout.base + 0x3800

(* Run a server's handler; a server bug surfacing as [Kern_error]
   becomes an error reply instead of tearing the whole server down. *)
let run_handler handler msg =
  try handler msg with Kern_error err -> simple_message ~payload:(P_error err) ()

let page_size = 4096
let page_of_addr addr = addr / page_size
let pages_of_bytes bytes = (bytes + page_size - 1) / page_size

(* Payloads at or above this size, when page-aligned, are worth moving
   by remap instead of physical copy; below it the map manipulation and
   shootdown cost more than the copy loop. *)
let remap_threshold = page_size

let page_aligned ~addr ~bytes =
  addr mod page_size = 0 && bytes mod page_size = 0 && bytes > 0
