(* Known-bad fixture: no-block, the completion wait.
   A disk-completion closure that waits for a second completion through
   [Sched.await]: it runs from the machine's event loop, where there is
   no thread to put to sleep. *)

let read_then_flush sys d =
  Disk.read d ~block:0 ~count:1 (fun _ ->
      Sched.await sys "disk-barrier" (Disk.barrier d))
