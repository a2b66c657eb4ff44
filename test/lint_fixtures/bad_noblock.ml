(* Known-bad fixture: no-block.
   Blocking primitives reached from contexts that run with the world
   stopped: an annotated interrupt path, an event-queue callback, and
   txn bodies that park on RPC or directly in the kernel's IPC wait. *)

let[@machlint.no_block] isr sys =
  (* interrupt delivery must never sleep *)
  Sched.block sys Wait_forever

let completion_blocks eq port =
  Event_queue.schedule eq 5 (fun () ->
      (* the event loop has no thread to put to sleep *)
      ignore (Ipc.receive port ~timeout:None))

let txn_waits_on_rpc fs port =
  { txn_run = (fun () -> ignore (Rpc.call port Q_sync)) }

let txn_waits_in_kernel fs sys th q =
  { txn_run =
      (fun () ->
        ignore
          (Sched.wait sys ~q th ~rdesc:"receive" ~rname:"p" ~holders:[]
             "msg-receive")) }
