(* Known-clean fixture: no-block, the completion wait.
   A txn body that waits for a disk barrier through [Sched.await]: a
   completion wait is not IPC, so the journal may park on it. *)

let txn_awaits_barrier sys d =
  { txn_run = (fun () -> Sched.await sys "journal-barrier" (Disk.barrier d)) }
