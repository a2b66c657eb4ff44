open Ktypes

(* Cross-CPU scheduler messages, after DragonFly BSD's LWKT discipline:
   per-CPU scheduling state is owned by its CPU, and every cross-CPU
   mutation (a wakeup or a teardown) travels as an asynchronous
   message on the target CPU's queue, delivered when that CPU next runs
   its dispatcher.  An IPI is raised only on the queue's empty->nonempty
   transition, so bursts of messages share one interrupt.  A message
   lands no earlier than its send stamp and no later than the first
   dispatch at which the receiver's clock has reached it; a busy
   receiver keeps running its own threads while the interrupt is in
   flight. *)
type xmsg =
  | X_wake of { xth : thread; xresult : kern_return; sent_at : float }
  | X_teardown of { xtid : int; sent_at : float }

type percpu = {
  pc_id : int;
  pc_runq : thread Queue.t;
  pc_ipiq : xmsg Queue.t;
  mutable pc_next_at : float;  (* earliest stamp in pc_ipiq; infinity if none *)
  mutable pc_last : thread option;  (* last thread dispatched here *)
  mutable pc_switches : int;
  mutable pc_steals : int;  (* threads this CPU stole while idle *)
  mutable pc_xmsgs : int;  (* cross-CPU messages processed here *)
}

type t = {
  machine : Machine.t;
  ktext : Ktext.t;
  percpu : percpu array;
  mutable active : int;  (* CPU currently dispatching; 0 on a uniprocessor *)
  mutable current : thread option;
  mutable next_task_id : int;
  mutable next_thread_id : int;
  mutable next_port_id : int;
  mutable next_obj_id : int;
  mutable next_map_id : int;
  mutable tasks : task list;
  default_pset : processor_set;  (* this system's default processor set *)
  mutable vnext : int;
  mutable page_limit : int;
  mutable pages_resident : int;
  resident_fifo : (vm_object * int) Queue.t;
  mutable default_backing : backing_store option;
  mutable switches : int;
  mutable charge_switches : bool;
  mutable fault_count : int;
  mutable reply_cache_hits : int;  (* Ipc.call reused the cached port *)
  mutable reply_cache_misses : int;  (* Ipc.call had to allocate one *)
  mutable faults : Fault.t option;  (* fault-injection plan, None = off *)
  mutable retry_attempts : int;  (* re-issues performed by call_retry *)
  mutable checks : Check.t option;  (* Machcheck attachment, None = off *)
  mutable check_space : int;  (* this boot's id space at the checker *)
}

type _ Effect.t +=
  | E_self : thread Effect.t
  | E_block : string -> kern_return Effect.t
  | E_yield : unit Effect.t

(* Processing one scheduler message costs the receiver a short fixed
   dispatch (decode + state update), on top of the per-batch interrupt
   entry priced at [Config.ipi_cycles]. *)
let xmsg_cycles = 32

let create machine ktext =
  let used = Machine.Layout.used_bytes machine.Machine.layout in
  let total = machine.Machine.config.Machine.Config.memory_bytes in
  {
    machine;
    ktext;
    percpu =
      Array.init (Machine.ncpus machine) (fun i ->
          {
            pc_id = i;
            pc_runq = Queue.create ();
            pc_ipiq = Queue.create ();
            pc_next_at = infinity;
            pc_last = None;
            pc_switches = 0;
            pc_steals = 0;
            pc_xmsgs = 0;
          });
    active = 0;
    current = None;
    next_task_id = 1;
    next_thread_id = 1;
    next_port_id = 1;
    next_obj_id = 1;
    next_map_id = 1;
    tasks = [];
    default_pset = { ps_name = "default"; ps_tasks = [] };
    vnext = 0x4000_0000;
    page_limit = (total - used) / page_size;
    pages_resident = 0;
    resident_fifo = Queue.create ();
    default_backing = None;
    switches = 0;
    charge_switches = true;
    fault_count = 0;
    reply_cache_hits = 0;
    reply_cache_misses = 0;
    faults = None;
    retry_attempts = 0;
    checks = Check.installed ();
    check_space =
      (match Check.installed () with Some c -> Check.new_space c | None -> 0);
  }

let ncpus t = Array.length t.percpu

(* The clock of the CPU now executing: the stamp a producer publishes. *)
let now t = Machine.Cpu.now_exact t.machine.Machine.cpu

let enable_checks t chk =
  t.checks <- Some chk;
  t.check_space <- Check.new_space chk;
  Ktext.set_checks t.ktext chk

let virtual_alloc t ~bytes =
  let bytes = pages_of_bytes bytes * page_size in
  let addr = t.vnext in
  t.vnext <- t.vnext + bytes;
  addr

let task_create t ~name ?(personality = "pn") ?(text_bytes = 16 * 1024)
    ?(data_bytes = 16 * 1024) () =
  let alloc n kind size =
    Machine.Layout.alloc t.machine.Machine.layout ~name:n ~kind ~size
  in
  let text = alloc (name ^ ".text") Machine.Layout.Code text_bytes in
  let data = alloc (name ^ ".data") Machine.Layout.Data data_bytes in
  (* text and stacks are wired: shrink the pageable pool accordingly *)
  t.page_limit <- t.page_limit - pages_of_bytes (text_bytes + data_bytes);
  let task =
    {
      task_id = t.next_task_id;
      task_name = name;
      threads = [];
      namespace = Hashtbl.create 16;
      next_name = 1;
      vm = { map_id = t.next_map_id; entries = []; map_pmap_loaded = false };
      text;
      data;
      libraries = [];
      halted = false;
      personality;
    }
  in
  t.next_task_id <- t.next_task_id + 1;
  t.next_map_id <- t.next_map_id + 1;
  t.tasks <- task :: t.tasks;
  task

let thread_spawn t task ~name ?affinity ?(bound = false) body =
  if task.halted then raise (Kern_error Kern_invalid_argument);
  let affinity =
    match affinity with
    | None -> t.active  (* children start where their creator runs *)
    | Some a ->
        if a < 0 || a >= Array.length t.percpu then
          invalid_arg "Sched.thread_spawn: no such CPU";
        a
  in
  let slot = List.length task.threads mod 6 in
  let th =
    {
      tid = t.next_thread_id;
      tname = name;
      t_task = task;
      state = Th_runnable;
      cont = Not_started;
      body;
      priority = 0;
      stack_base = task.data.Machine.Layout.base + 1024 + (slot * 2048);
      wake_result = Kern_success;
      reply_port_cache = None;
      affinity;
      bound;
      ready_at = now t;
      request = No_request;
    }
  in
  t.next_thread_id <- t.next_thread_id + 1;
  task.threads <- th :: task.threads;
  Queue.add th t.percpu.(affinity).pc_runq;
  th

let self () =
  try Effect.perform E_self
  with Effect.Unhandled _ -> failwith "Sched.self: not in thread context"

let block reason = Effect.perform (E_block reason)
let yield () = Effect.perform E_yield

let sent_at = function
  | X_wake { sent_at; _ } | X_teardown { sent_at; _ } -> sent_at

(* Post a message on [target]'s queue; ring the doorbell only when the
   queue was empty (LWKT batching: one IPI covers a burst). *)
let post_xmsg t ~target msg =
  let pc = t.percpu.(target) in
  let was_empty = Queue.is_empty pc.pc_ipiq in
  Queue.add msg pc.pc_ipiq;
  pc.pc_next_at <- Float.min pc.pc_next_at (sent_at msg);
  if was_empty then Machine.ipi t.machine ~target

(* The one rule for simulated time (Lamport, CACM 1978: no consumer acts
   before its cause).  A CPU that consumes what a producer published at
   [stamp] — a ready thread, a scheduler message, a lock, a semaphore
   unit, a pending call, a queued message — idles up to the stamp when
   its clock is behind it.  The idle is uncharged: the CPU did no work,
   it waited.  On one CPU the clock never runs backwards, so no stamp is
   ever ahead of its consumer and this never moves a clock. *)
let observe_cpu cpu stamp =
  if stamp > Machine.Cpu.now_exact cpu then
    Machine.Cpu.advance_to cpu (int_of_float (Float.ceil stamp))

let observe t stamp = observe_cpu t.machine.Machine.cpu stamp

(* A thread became runnable at [now]: it may not run earlier, nor
   earlier than it last stopped. *)
let stamp_ready th now = if now > th.ready_at then th.ready_at <- now

let wake t ?(result = Kern_success) th =
  match th.state with
  | Th_blocked _ ->
      if Array.length t.percpu = 1 || th.affinity = t.active then begin
        (* the waker runs on the thread's owning CPU: plain enqueue,
           stamped with that CPU's clock — and no earlier than the
           waker's, for a disk or timer event that fires on the boot CPU
           while [active] still names the CPU dispatched last.  An
           interrupt steered by [interrupt_on] names its own CPU in
           both, so its wake is stamped with that CPU's clock alone. *)
        th.wake_result <- result;
        th.state <- Th_runnable;
        stamp_ready th
          (Machine.Cpu.now_exact (Machine.nth_cpu t.machine th.affinity));
        stamp_ready th (now t);
        Queue.add th t.percpu.(th.affinity).pc_runq
      end
      else begin
        (* cross-CPU: the owning CPU flips the thread runnable when it
           drains its message queue; we never touch its run queue *)
        post_xmsg t ~target:th.affinity
          (X_wake
             {
               xth = th;
               xresult = result;
               sent_at = now t;
             });
        match t.checks with
        | None -> ()
        | Some c ->
            Check.remote_wake_sent c ~space:t.check_space ~tid:th.tid
      end
  | Th_runnable | Th_running | Th_terminated -> ()

(* Advance the clock to the next device event and run it; false when
   none is left.  Device events deliver on the boot CPU. *)
let next_event t =
  let ran = Machine.advance_to_next_event t.machine in
  if ran then t.active <- 0;
  ran

(* A device interrupt steered to CPU [cpu] at [at]: the handler runs
   as that CPU for the machine and for the scheduler alike, so a wake it
   makes of a thread homed there is a local enqueue, not an IPI and a
   message.  Both active CPUs are restored afterwards. *)
let interrupt_on t ~cpu ~at handler =
  let saved = t.active in
  t.active <- cpu;
  Machine.interrupt_on t.machine cpu ~at handler;
  t.active <- saved

(* Wait for one asynchronous completion: [start] gets the callback that
   stores the result and wakes us.  A wake from anything else finds no
   result yet and blocks again.  The boot context has no thread to
   block, so it steps device events until the completion has run. *)
let await t reason start =
  let waiter = t.current in
  let result = ref None in
  start (fun v ->
      result := Some v;
      Option.iter (wake t) waiter);
  let rec loop () =
    match (!result, waiter) with
    | Some v, _ -> v
    | None, Some _ ->
        ignore (block reason : kern_return);
        loop ()
    | None, None ->
        if next_event t then loop ()
        else
          failwith
            (Printf.sprintf "Sched.await %s: no event left to complete it"
               reason)
  in
  loop ()

(* Thread wait-queue hygiene.  A waiter belongs in a port's queue at
   most once: a spurious wake (a timeout, fault injection, an abort)
   resumes the thread while its entry is still queued, and blindly
   re-adding it would leave stale duplicates that distort the queue
   accounting. *)
let enqueue_waiter th q =
  if not (Queue.fold (fun seen w -> seen || w == th) false q) then
    Queue.add th q

let dequeue_waiter th q =
  let keep = Queue.create () in
  Queue.iter (fun w -> if w != th then Queue.add w keep) q;
  Queue.clear q;
  Queue.transfer keep q

let rec wake_one t q =
  match Queue.take_opt q with
  | None -> false
  | Some th -> (
      match th.state with
      | Th_blocked _ ->
          wake t th;
          true
      | Th_runnable | Th_running | Th_terminated -> wake_one t q)

(* Wake the oldest blocked waiter homed on [cpu], if there is one. *)
let wake_home t q ~cpu =
  let local =
    Queue.fold
      (fun found th ->
        match (found, th.state) with
        | None, Th_blocked _ when th.affinity = cpu -> Some th
        | _ -> found)
      None q
  in
  match local with
  | Some th ->
      dequeue_waiter th q;
      wake t th;
      true
  | None -> false

(* [wake_one], preferring a waiter homed on [cpu]: a local wake is a
   plain enqueue, where the oldest waiter may sit on another CPU and
   cost an IPI and a cross-CPU message. *)
let wake_one_on t q ~cpu = wake_home t q ~cpu || wake_one t q

(* The one kernel wait.  The thread joins [q] at most once, reports its
   wait-for edge to Machcheck for as long as it sleeps, and on any wake
   but a plain [Kern_success] (timeout, abort, dying port) leaves [q]
   again — a waiter that gave up must not absorb a later wake meant for
   a thread still waiting.  The resource's name "rdesc(rname)" is built
   only for an attached Machcheck, so a run without one pays nothing
   for it. *)
let wait t ?q th ~rdesc ~rname ~holders reason =
  Option.iter (enqueue_waiter th) q;
  (match t.checks with
  | None -> ()
  | Some c ->
      Check.blocked_on c ~space:t.check_space ~tid:th.tid
        ~tname:(th.t_task.task_name ^ "." ^ th.tname)
        ~cpu:t.active ~rdesc:(rdesc ^ "(" ^ rname ^ ")") ~holders);
  let r = block reason in
  (match t.checks with
  | None -> ()
  | Some c -> Check.unblocked c ~space:t.check_space ~tid:th.tid);
  (match (r, q) with
  | Kern_success, _ | _, None -> ()
  | _, Some q -> dequeue_waiter th q);
  r

let terminate t th =
  let was_live = match th.state with Th_terminated -> false | _ -> true in
  (match th.state with
  | Th_terminated -> ()
  | Th_running | Th_runnable | Th_blocked _ ->
      th.state <- Th_terminated;
      th.cont <- Finished);
  th.t_task.threads <- List.filter (fun x -> x.tid <> th.tid) th.t_task.threads;
  (* remote teardown: the kill takes effect immediately (the victim can
     never run again — its owning CPU skips terminated queue entries),
     but the owning CPU still pays to reap the thread when it next
     drains its messages *)
  if was_live && Array.length t.percpu > 1 && th.affinity <> t.active then
    post_xmsg t ~target:th.affinity
      (X_teardown
         {
           xtid = th.tid;
           sent_at = now t;
         });
  match t.checks with
  | None -> ()
  | Some c -> Check.thread_gone c ~space:t.check_space ~tid:th.tid

let task_halt t task =
  task.halted <- true;
  List.iter (fun th -> terminate t th) task.threads;
  task.threads <- [];
  (* The kernel reclaims the port space with the task: account the
     residual rights through Machcheck instead of dropping them. *)
  match t.checks with
  | None -> ()
  | Some c ->
      ignore
        (Check.task_teardown c ~space:t.check_space ~task:task.task_id
           ~tname:task.task_name
          : int);
      Hashtbl.reset task.namespace

let charge_dispatch t (pc : percpu) th =
  if t.charge_switches then begin
    let k = t.ktext in
    Ktext.exec1 k ~frame:th.stack_base Ktext.sched_pick;
    match pc.pc_last with
    | Some prev when prev.tid = th.tid -> ()
    | Some prev ->
        Ktext.exec1 k ~frame:th.stack_base Ktext.context_switch;
        if prev.t_task.task_id <> th.t_task.task_id then begin
          Ktext.exec1 k ~frame:th.stack_base Ktext.pmap_switch;
          Machine.Cpu.switch_address_space t.machine.Machine.cpu
        end
    | None -> Ktext.exec1 k ~frame:th.stack_base Ktext.context_switch
  end

let handler t th : (unit, unit) Effect.Deep.handler =
  {
    retc =
      (fun () ->
        th.state <- Th_terminated;
        th.cont <- Finished;
        th.t_task.threads <-
          List.filter (fun x -> x.tid <> th.tid) th.t_task.threads;
        match t.checks with
        | None -> ()
        | Some c -> Check.thread_gone c ~space:t.check_space ~tid:th.tid);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | E_self ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                Effect.Deep.continue k th)
        | E_block reason ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                th.wake_result <- Kern_success;
                th.state <- Th_blocked reason;
                th.cont <- Paused_result k)
        | E_yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                th.state <- Th_runnable;
                th.cont <- Paused_unit k;
                Queue.add th t.percpu.(th.affinity).pc_runq)
        | _ -> None);
  }

(* Dispatch [th] on CPU [i].  A CPU behind the thread's ready stamp (a
   thief that stole it) first idles up to the
   stamp: the thread cannot run before it became runnable.  A dispatch
   that leaves the clock where it was (switch charging off, a zero-cost
   yield) could otherwise spin forever on a wake held for this CPU, so
   the clock skips to the earliest held stamp and the next drain
   delivers it. *)
let step t i th =
  t.active <- i;
  Machine.set_active t.machine i;
  let pc = t.percpu.(i) in
  let cpu = Machine.nth_cpu t.machine i in
  observe t th.ready_at;
  let before = Machine.Cpu.now_exact cpu in
  charge_dispatch t pc th;
  t.switches <- t.switches + 1;
  pc.pc_switches <- pc.pc_switches + 1;
  t.current <- Some th;
  pc.pc_last <- Some th;
  th.state <- Th_running;
  (match th.cont with
  | Not_started ->
      let body = th.body in
      Effect.Deep.match_with body () (handler t th)
  | Paused_result k ->
      th.cont <- Not_started;
      Effect.Deep.continue k th.wake_result
  | Paused_unit k ->
      th.cont <- Not_started;
      Effect.Deep.continue k ()
  | Finished -> ());
  t.current <- None;
  stamp_ready th (Machine.Cpu.now_exact cpu);
  if Machine.Cpu.now_exact cpu = before && pc.pc_next_at < infinity then
    observe t pc.pc_next_at

let has_runnable pc =
  Queue.fold (fun acc th -> acc || th.state = Th_runnable) false pc.pc_runq

(* One message's effect on the receiving CPU, after a short decode. *)
let[@machlint.no_block] deliver t pc cpu msg =
  Machine.Cpu.stall cpu xmsg_cycles;
  pc.pc_xmsgs <- pc.pc_xmsgs + 1;
  match msg with
  | X_wake { xth; xresult; _ } -> (
      match xth.state with
      | Th_blocked _ ->
          xth.wake_result <- xresult;
          xth.state <- Th_runnable;
          stamp_ready xth (Machine.Cpu.now_exact cpu);
          Queue.add xth t.percpu.(xth.affinity).pc_runq;
          (match t.checks with
          | None -> ()
          | Some c ->
              Check.remote_wake_delivered c ~space:t.check_space ~tid:xth.tid)
      | Th_runnable | Th_running | Th_terminated -> ())
  | X_teardown _ -> ()  (* reap accounting only: the decode is the cost *)

(* Deliver CPU [i]'s messages that have arrived: those stamped at or
   before its clock.  A CPU with a runnable thread never moves its clock
   for a message; it takes the message at a later dispatch.  An idle CPU
   first skips ahead to the earliest stamp, and repeats while it stays
   idle.  Each delivering
   pass pays one interrupt entry plus a decode per message.  Runs at
   interrupt level: it must never call anything that can put the current
   thread to sleep. *)
let[@machlint.no_block] rec drain_ipiq t i =
  let pc = t.percpu.(i) in
  if pc.pc_next_at < infinity then begin
    let cpu = Machine.nth_cpu t.machine i in
    if pc.pc_next_at <= Machine.Cpu.now_exact cpu || not (has_runnable pc)
    then begin
      observe_cpu cpu pc.pc_next_at;
      let limit = Machine.Cpu.now_exact cpu in
      Machine.Cpu.stall cpu t.machine.Machine.config.Machine.Config.ipi_cycles;
      let next = ref infinity in
      for _ = 1 to Queue.length pc.pc_ipiq do
        let msg = Queue.pop pc.pc_ipiq in
        let at = sent_at msg in
        if at <= limit then deliver t pc cpu msg
        else begin
          Queue.add msg pc.pc_ipiq;
          next := Float.min !next at
        end
      done;
      pc.pc_next_at <- !next;
      if not (has_runnable pc) then drain_ipiq t i
    end
  end

let runnable_count pc =
  Queue.fold (fun n th -> if th.state = Th_runnable then n + 1 else n) 0
    pc.pc_runq

(* Remove the newest stealable entry — runnable and not bound — from the
   tail end of a run queue (older entries are about to run anyway). *)
let steal_from pc =
  let arr = Array.of_seq (Queue.to_seq pc.pc_runq) in
  let idx = ref (-1) in
  Array.iteri
    (fun i th -> if th.state = Th_runnable && not th.bound then idx := i)
    arr;
  if !idx < 0 then None
  else begin
    Queue.clear pc.pc_runq;
    Array.iteri (fun i th -> if i <> !idx then Queue.add th pc.pc_runq) arr;
    Some arr.(!idx)
  end

(* Dispatch the highest-priority runnable thread; FIFO among equals, so
   a queue of default-priority threads pops in exactly the old order.
   Elevated priorities exist for protocol threads (netisrs): a server's
   drain loop must not sit behind the user thread that just woke on the
   same CPU, or rings back up behind the co-located producer. *)
let rec pop_runnable q =
  match Queue.take_opt q with
  | None -> None
  | Some th -> (
      match th.state with
      | Th_runnable ->
          let hi =
            Queue.fold
              (fun m t ->
                if t.state = Th_runnable && t.priority > m then t.priority
                else m)
              th.priority q
          in
          if hi <= th.priority then Some th
          else begin
            (* pull the first runnable at priority [hi] out of the
               queue; everything else keeps its relative order *)
            let out = Queue.create () in
            let chosen = ref None in
            Queue.add th out;
            Queue.iter
              (fun t ->
                match !chosen with
                | None when t.state = Th_runnable && t.priority = hi ->
                    chosen := Some t
                | None | Some _ -> Queue.add t out)
              q;
            Queue.clear q;
            Queue.transfer out q;
            !chosen
          end
      | Th_running | Th_blocked _ | Th_terminated -> pop_runnable q)

(* Choose the next CPU to dispatch: the conservative sequential
   interleaving runs whichever CPU with work is furthest behind in
   simulated time (deterministic: ties break to the lowest index).
   Before choosing, every CPU drains the messages that have reached it
   (an idle CPU skips ahead to its earliest one); an idle CPU
   strictly behind the choice steals the newest unbound thread from the
   most loaded run queue (>= 2 waiting) and dispatches it itself. *)
let rec select t =
  let n = Array.length t.percpu in
  for i = 0 to n - 1 do
    drain_ipiq t i
  done;
  let clock i = Machine.Cpu.now_exact (Machine.nth_cpu t.machine i) in
  let best = ref (-1) and bestclk = ref infinity in
  for i = n - 1 downto 0 do
    if has_runnable t.percpu.(i) then begin
      let c = clock i in
      if c <= !bestclk then begin
        best := i;
        bestclk := c
      end
    end
  done;
  if !best < 0 then None
  else begin
    let stole = ref false in
    if n > 1 then begin
      let thief = ref (-1) and thiefclk = ref !bestclk in
      for i = n - 1 downto 0 do
        if not (has_runnable t.percpu.(i)) then begin
          let c = clock i in
          if c < !thiefclk then begin
            thief := i;
            thiefclk := c
          end
        end
      done;
      if !thief >= 0 then begin
        let victim = ref (-1) and vcount = ref 1 in
        for i = n - 1 downto 0 do
          let c = runnable_count t.percpu.(i) in
          if c >= 2 && c >= !vcount then begin
            victim := i;
            vcount := c
          end
        done;
        if !victim >= 0 then
          match steal_from t.percpu.(!victim) with
          | None -> ()
          | Some th ->
              (* affinity follows the thief; the thief pays the
                 cross-CPU queue touch (coherence traffic both ways) *)
              th.affinity <- !thief;
              let pc = t.percpu.(!thief) in
              pc.pc_steals <- pc.pc_steals + 1;
              Machine.Cpu.stall
                (Machine.nth_cpu t.machine !thief)
                (2
                * t.machine.Machine.config
                    .Machine.Config.coherence_miss_cycles);
              Queue.add th pc.pc_runq;
              stole := true
      end
    end;
    if !stole then select t  (* the thief is now eligible; re-rank *)
    else
      match pop_runnable t.percpu.(!best).pc_runq with
      | Some th -> Some (!best, th)
      | None -> select t  (* queue held only stale entries; re-rank *)
  end

let rec run t =
  match select t with
  | Some (i, th) ->
      step t i th;
      run t
  | None -> if next_event t then run t

let run_until t pred =
  let rec loop () =
    if pred () then true
    else
      match select t with
      | Some (i, th) ->
          step t i th;
          loop ()
      | None -> if next_event t then loop () else pred ()
  in
  loop ()

let total_steals t =
  Array.fold_left (fun acc pc -> acc + pc.pc_steals) 0 t.percpu

let total_xmsgs t =
  Array.fold_left (fun acc pc -> acc + pc.pc_xmsgs) 0 t.percpu

let with_uncharged t f =
  let saved = t.charge_switches in
  t.charge_switches <- false;
  Fun.protect ~finally:(fun () -> t.charge_switches <- saved) f
