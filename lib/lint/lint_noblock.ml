(* Rule: no-block contexts.

   Every wait in the tree ends in [Sched.block]: timer sleeps call it
   directly, the disk and page-in waits (block cache, journal, disk
   driver, VM) reach it through [Sched.await], the one wait for an
   asynchronous completion, and every IPC, RPC and synchronizer wait
   reaches it through [Sched.wait], the one wait that queues the thread
   and reports its Machcheck wait-for edge.  We taint-propagate "may
   block" from all three (and from the public IPC entry points) through
   the call graph and reject it in contexts that run with the world
   stopped:

   - functions annotated [@machlint.no_block] — IPI delivery, interrupt
     dispatch;
   - closures handed to the event queue or a disk completion slot (they
     run from the machine's event loop, where there is no thread to put
     to sleep);
   - [txn_run] bodies (the journal wrapper, [Fs_types.journalled]):
     these MAY wait on the disk (journal commit is a barrier) but must
     never wait on IPC, RPC or a semaphore — a transaction that parks
     mid-journal on a message from another server deadlocks recovery.

   Machcheck's wait-for-graph deadlock detector is the dynamic
   complement: it catches the blocked-entry cycles that this rule's
   static over-approximation intentionally leaves to runtime. *)

type policy = Deny_any | Deny_ipc

(* Waits that are acceptable inside a txn body (disk barriers) are in
   [any_sources] only; everything in [ipc_sources] is rejected by both
   policies. *)
let any_sources = [ "Sched.block"; "Sched.await"; "Clock.sleep_for" ]

let ipc_sources =
  [
    "Sched.wait";
    "Ipc.receive";
    "Ipc.send";
    "Ipc.call";
    "Ipc.serve";
    "Ipc.serve_one";
    "Rpc.call";
    "Rpc.call_retry";
    "Rpc.receive";
    "Rpc.reply_receive";
    "Rpc.serve";
    "Rpc.serve_one";
    "Sync.semaphore_wait";
    "Sync.semaphore_wait_timeout";
    "Sync.event_wait";
    "Sync.mutex_lock";
    "Runtime.umutex_lock";
  ]

let sources_of = function
  | Deny_any -> any_sources @ ipc_sources
  | Deny_ipc -> ipc_sources

let attr_names = [ "machlint.no_block"; "no_block" ]

(* Event-queue and disk-completion closures must not block at all;
   thread-spawn closures are ordinary thread bodies (free to block) and
   txn bodies get the weaker policy. *)
let policy_of_sink = function
  | "Event_queue.schedule" | "Disk.read" | "Disk.write" | "Disk.barrier" ->
      Some Deny_any
  | "txn_run" -> Some Deny_ipc
  | _ -> None

type taint = { mutable t_any : bool; mutable t_ipc : bool }

let compute_taint (g : Lint_graph.t) =
  let taint : (string, taint) Hashtbl.t = Hashtbl.create 512 in
  Lint_graph.iter_fns g (fun fn ->
      Hashtbl.replace taint fn.Lint_graph.fn_key
        { t_any = false; t_ipc = false });
  let get k = Hashtbl.find_opt taint k in
  let changed = ref true in
  while !changed do
    changed := false;
    Lint_graph.iter_fns g (fun fn ->
        match get fn.Lint_graph.fn_key with
        | None -> ()
        | Some t ->
            List.iter
              (fun c ->
                let hit_any =
                  Lint_graph.call_matches c any_sources
                  || Lint_graph.call_matches c ipc_sources
                and hit_ipc = Lint_graph.call_matches c ipc_sources in
                let callee =
                  Option.bind c.Lint_graph.c_key (fun k -> get k)
                in
                let any =
                  hit_any
                  || match callee with Some ct -> ct.t_any | None -> false
                and ipc =
                  hit_ipc
                  || match callee with Some ct -> ct.t_ipc | None -> false
                in
                if any && not t.t_any then (
                  t.t_any <- true;
                  changed := true);
                if ipc && not t.t_ipc then (
                  t.t_ipc <- true;
                  changed := true))
              fn.Lint_graph.fn_calls)
  done;
  taint

let render_call c =
  match c.Lint_graph.c_key with
  | Some k -> k
  | None -> String.concat "." c.Lint_graph.c_path

(* A witness chain "handle -> Rpc.serve -> Sched.block" for the finding
   message, so the report explains *why* the callee is tainted. *)
let trace g taint policy start_key =
  let sources = sources_of policy in
  let blocks k =
    match Hashtbl.find_opt taint k with
    | Some t -> ( match policy with Deny_any -> t.t_any | Deny_ipc -> t.t_ipc)
    | None -> false
  in
  let rec go seen k =
    if List.mem k seen || List.length seen > 8 then [ "..." ]
    else
      match Lint_graph.find g k with
      | None -> []
      | Some fn -> (
          let calls = fn.Lint_graph.fn_calls in
          match
            List.find_opt (fun c -> Lint_graph.call_matches c sources) calls
          with
          | Some c -> [ k; render_call c ]
          | None -> (
              match
                List.find_opt
                  (fun c ->
                    match c.Lint_graph.c_key with
                    | Some k2 -> blocks k2
                    | None -> false)
                  calls
              with
              | Some c ->
                  k :: go (k :: seen) (Option.get c.Lint_graph.c_key)
              | None -> [ k ]))
  in
  go [] start_key

let check_calls g taint ~policy ~where calls findings =
  let sources = sources_of policy in
  let blocks k =
    match Hashtbl.find_opt taint k with
    | Some t -> ( match policy with Deny_any -> t.t_any | Deny_ipc -> t.t_ipc)
    | None -> false
  in
  List.iter
    (fun c ->
      if Lint_graph.call_matches c sources then
        findings :=
          Lint_report.make ~rule:Lint_report.rule_noblock
            ~loc:c.Lint_graph.c_loc
            (Printf.sprintf
               "blocking primitive %s reached in %s (machcheck: \
                wait-for-graph)"
               (render_call c) where)
          :: !findings
      else
        match c.Lint_graph.c_key with
        | Some k when blocks k ->
            let chain = trace g taint policy k in
            findings :=
              Lint_report.make ~rule:Lint_report.rule_noblock
                ~loc:c.Lint_graph.c_loc
                (Printf.sprintf
                   "%s may block (%s) but is called in %s (machcheck: \
                    wait-for-graph)"
                   k
                   (String.concat " -> " chain)
                   where)
              :: !findings
        | _ -> ())
    calls

let check (g : Lint_graph.t) =
  let taint = compute_taint g in
  let findings = ref [] in
  (* Annotated functions. *)
  Lint_graph.iter_fns g (fun fn ->
      if
        List.exists
          (fun (a, _) -> List.mem a attr_names)
          fn.Lint_graph.fn_attrs
      then
        check_calls g taint ~policy:Deny_any
          ~where:
            (Printf.sprintf "%s [@machlint.no_block]" fn.Lint_graph.fn_key)
          fn.Lint_graph.fn_calls findings);
  (* Deferred contexts (event-queue / disk-completion / txn closures). *)
  List.iter
    (fun d ->
      match policy_of_sink d.Lint_graph.d_sink with
      | None -> ()
      | Some policy ->
          let where =
            match policy with
            | Deny_any ->
                Printf.sprintf "a %s callback (in %s)" d.Lint_graph.d_sink
                  d.Lint_graph.d_fn
            | Deny_ipc ->
                Printf.sprintf "a txn_run body (in %s)" d.Lint_graph.d_fn
          in
          check_calls g taint ~policy ~where d.Lint_graph.d_calls findings)
    g.Lint_graph.contexts;
  List.rev !findings
