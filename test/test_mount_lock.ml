(* The per-mount lock behind a multi-threaded file server: an exclusive
   hold keeps simulated time across CPUs, shared holds overlap, a request
   is one atomic step, release hands the lock over in arrival order, and
   a one-CPU server runs cycle for cycle as it did before the lock had
   any of this. *)

open Mach.Ktypes
module F = Fileserver
open F.Fs_types

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let ok = Test_util.check_fs_ok

let smp_config n = Machine.Config.with_ncpus Machine.Config.pentium_133 ~n

(* A one-file volume whose read body is supplied by the test: "/f" is
   file 1, the root is file 0.  Wrapped in the real mount lock. *)
let fake_volume sys ~read =
  F.Fs_types.serialized sys
    {
      pfs_limits =
        {
          fl_format = "fake";
          fl_max_name = 255;
          fl_case_sensitive = true;
          fl_preserves_case = true;
          fl_eight_dot_three = false;
          fl_journalled = false;
        };
      pfs_root = 0;
      pfs_lookup =
        (fun ~dir:_ name -> if name = "f" then Ok 1 else Error E_not_found);
      pfs_create = (fun ~dir:_ _ ~is_dir:_ -> Error E_read_only);
      pfs_remove = (fun ~dir:_ _ -> Error E_read_only);
      pfs_readdir = (fun ~dir:_ -> Ok [ "f" ]);
      pfs_stat =
        (fun id ->
          Ok { st_id = id; st_size = 4096; st_is_dir = id = 0; st_blocks = 1 });
      pfs_read = read;
      pfs_map_pool = (fun _ -> ());
      pfs_read_paged = (fun _ ~off:_ ~len:_ -> Ok None);
      pfs_release_paged = (fun ~addr:_ ~bytes:_ -> ());
      pfs_write = (fun _ ~off:_ data -> Ok (Bytes.length data));
      pfs_truncate = (fun _ ~len:_ -> Ok ());
      pfs_rename = (fun ~src_dir:_ _ ~dst_dir:_ _ -> Ok ());
      pfs_sync = (fun () -> ());
      pfs_free_blocks = (fun () -> 0);
      pfs_recover = (fun () -> clean_recovery);
      pfs_lock = None;
    }

let mount vfs ~at pfs =
  match F.Vfs.mount vfs ~at pfs with Ok () -> () | Error e -> Alcotest.fail e

(* Run [body c] in a bound client thread on each CPU [c] of [cpus]. *)
let clients k cpus body =
  List.iter
    (fun c ->
      let task =
        Mach.Kernel.task_create k ~name:(Printf.sprintf "client%d" c) ()
      in
      ignore
        (Mach.Kernel.thread_spawn k task ~name:"cl" ~affinity:c ~bound:true
           (fun () -> body c)
          : thread))
    cpus

(* Line the calling thread's CPU up at cycle [at]. *)
let start_at k at =
  let m = k.Mach.Kernel.machine in
  Machine.Cpu.advance_to (Machine.nth_cpu m (Machine.active m)) at

(* (a) Two serve threads on two CPUs start a cache-hit read at the same
   cycle.  Neither read blocks, so each runs atomically on the host; the
   lock's recorded hold is what keeps the second CPU's locked section
   from starting inside the first one's.  The threads stand in for serve
   threads: each marks itself inside a request, reads, and ends the
   request as [File_server] does. *)
let test_honest_hold () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let sys = k.Mach.Kernel.sys in
  let m = k.Mach.Kernel.machine in
  let sections = ref [] in
  let read _ ~off:_ ~len =
    let cpu = Machine.nth_cpu m (Machine.active m) in
    let t0 = Machine.Cpu.now_exact cpu in
    Machine.Cpu.stall m.Machine.cpu 2_000;
    sections := (t0, Machine.Cpu.now_exact cpu) :: !sections;
    Ok (Bytes.make len 'r')
  in
  let vfs = F.Vfs.create () in
  mount vfs ~at:"/fake" (fake_volume sys ~read);
  let sem = F.Vfs.unix_semantics in
  clients k [ 0; 1 ] (fun _ ->
      let th = Mach.Sched.self () in
      start_at k 1_000_000;
      th.request <- Exclusive_request;
      (match F.Vfs.resolve vfs sem ~path:"/fake/f" with
      | Ok (F.Vfs.File vn) -> ignore (ok "read" (F.Vnode.read vn ~off:0 ~len:64))
      | Ok F.Vfs.Root | Error _ -> Alcotest.fail "resolve /fake/f");
      th.request <- No_request;
      F.Vfs.end_request vfs th);
  Mach.Kernel.run k;
  match List.sort compare !sections with
  | [ (s1, e1); (s2, _) ] ->
      checkb "the first read starts at the common cycle" true
        (s1 < 1_000_000. +. 2_000.);
      checkb "the second locked section begins after the first ends" true
        (s2 >= e1);
      let ls = List.assoc "/fake" (F.Vfs.mount_lock_stats vfs) in
      checki "two exclusive holds" 2 ls.ls_exclusive;
      checki "one acquire waited" 1 ls.ls_waits;
      checkb "its wait is counted" true (ls.ls_wait_cycles >= 2_000)
  | l -> Alcotest.failf "expected two reads, got %d" (List.length l)

(* (b) Two clients on two CPUs open the same new path with create, at
   once, over a cold cache: the walk blocks on disk with the lock held,
   so the other request waits and then finds the file.  Both get a
   handle to the one file; the directory holds one entry. *)
let test_atomic_create () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let runtime = Mk_services.Runtime.install k in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Hpfs.mkfs disk ();
  let vfs = F.Vfs.create () in
  let cache = F.Block_cache.create k disk () in
  mount vfs ~at:"/os2" (ok "mount hpfs" (F.Hpfs.mount cache ()));
  let fs = F.File_server.start k runtime vfs () in
  let sem = F.Vfs.os2_semantics in
  let handles = Array.make 2 None in
  clients k [ 0; 1 ] (fun c ->
      start_at k 1_000_000;
      handles.(c) <-
        Some
          (F.File_server.Client.open_ fs sem ~path:"/os2/new.dat" ~create:true
             ()));
  Mach.Kernel.run k;
  let handle c =
    match handles.(c) with
    | Some r -> ok (Printf.sprintf "open on cpu %d" c) r
    | None -> Alcotest.failf "client %d did not finish" c
  in
  let h0 = handle 0 and h1 = handle 1 in
  let listed, seen =
    Test_util.run_in_thread k (fun () ->
        ignore (ok "write" (F.File_server.Client.write fs h0 (Bytes.of_string "abc")));
        F.File_server.Client.seek fs h1 ~pos:0;
        let seen = ok "read" (F.File_server.Client.read fs h1 ~bytes:3) in
        (ok "readdir" (F.File_server.Client.readdir fs sem ~path:"/os2"), seen))
  in
  Alcotest.(check string) "both handles name one file" "abc"
    (Bytes.to_string seen);
  Alcotest.(check (list string)) "one directory entry" [ "new.dat" ] listed;
  Alcotest.(check (list string)) "fsck clean" [] (F.Hpfs.fsck cache ())

(* (c) Three threads queue on a held lock; the holder releases and at
   once asks again.  Release hands the lock to the oldest waiter, so the
   queue is served in arrival order and the releaser goes to its back
   instead of barging in. *)
let test_no_barging () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let order = ref [] in
  let first = ref true in
  let read _ ~off:_ ~len:_ =
    let me = (Mach.Sched.self ()).tname in
    order := me :: !order;
    if !first then begin
      first := false;
      ignore (Mach.Clock.sleep_for sys ~cycles:100_000 : kern_return)
    end;
    Ok Bytes.empty
  in
  let pfs = fake_volume sys ~read in
  let task = Mach.Kernel.task_create k ~name:"lockers" () in
  let take () = ignore (pfs.pfs_read 1 ~off:0 ~len:0) in
  Test_util.spawn k task "h" (fun () ->
      take ();
      take ());
  List.iter (fun name -> Test_util.spawn k task name take) [ "w1"; "w2"; "w3" ];
  Mach.Kernel.run k;
  Alcotest.(check (list string)) "arrival order" [ "h"; "w1"; "w2"; "w3"; "h" ]
    (List.rev !order)

(* The reader/writer tests below run request threads by hand: each marks
   itself inside a request of [mode], enters the volume's read at cycle
   [at] on its CPU, and ends the request as [File_server] does.  [read]
   records each locked section as (thread, start, end). *)
let timed_read m sections ~cycles _ ~off:_ ~len =
  let cpu = Machine.nth_cpu m (Machine.active m) in
  let t0 = Machine.Cpu.now_exact cpu in
  Machine.Cpu.stall m.Machine.cpu cycles;
  sections := ((Mach.Sched.self ()).tname, t0, Machine.Cpu.now_exact cpu)
              :: !sections;
  Ok (Bytes.make len 'r')

let request_read k pfs ~mode ~at =
  let th = Mach.Sched.self () in
  start_at k at;
  th.request <- mode;
  ignore (ok "read" (pfs.pfs_read 1 ~off:0 ~len:8));
  th.request <- No_request;
  F.Fs_types.release_held (Option.get pfs.pfs_lock) th

(* Two bound request threads, [first] on CPU 1 dispatched before
   [second] on CPU 0: CPU 0 starts a little ahead, so the scheduler runs
   CPU 1 first, and CPU 1's whole request runs on the host before CPU 0
   runs at all. *)
let two_cpu_script k ~first ~second =
  let m = k.Mach.Kernel.machine in
  Machine.Cpu.advance_to (Machine.nth_cpu m 0) 10;
  List.iter
    (fun (cpu, name, body) ->
      let task = Mach.Kernel.task_create k ~name () in
      ignore
        (Mach.Kernel.thread_spawn k task ~name ~affinity:cpu ~bound:true body
          : thread))
    [ (1, "first", first); (0, "second", second) ];
  Mach.Kernel.run k

(* (a) CPU 1 holds the lock over [1,000,000, 1,002,000) and releases it
   on the host; then CPU 0, whose clock is still at 999,000, takes it for
   2,000 cycles.  Its hold would run into CPU 1's, and nothing in it
   blocks, so only the release stamp can move it: it starts at that
   hold's end. *)
let exclusive_before_released_hold () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let m = k.Mach.Kernel.machine in
  let sections = ref [] in
  let pfs =
    fake_volume k.Mach.Kernel.sys ~read:(timed_read m sections ~cycles:2_000)
  in
  two_cpu_script k
    ~first:(fun () ->
      request_read k pfs ~mode:Exclusive_request ~at:1_000_000)
    ~second:(fun () -> request_read k pfs ~mode:Exclusive_request ~at:999_000);
  (k, pfs, List.rev !sections)

let test_exclusive_waits_for_released_hold () =
  match exclusive_before_released_hold () with
  | _, pfs, [ ("first", s1, e1); ("second", s2, _) ] ->
      checkb "CPU 1's hold ran first, from its own clock" true
        (s1 >= 1_000_000. && s1 < 1_000_010.);
      checkb "CPU 0's hold starts at that hold's end" true
        (s2 >= e1 && s2 < e1 +. 1.);
      let ls = Mach.Sync.lock_stats (Option.get pfs.pfs_lock) in
      checki "two exclusive holds" 2 ls.ls_exclusive;
      checki "the second waited" 1 ls.ls_waits
  | _, _, l -> Alcotest.failf "expected two sections, got %d" (List.length l)

(* (b) Two shared holds on two CPUs at the same cycle overlap in time,
   and neither waits. *)
let test_shared_holds_overlap () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let m = k.Mach.Kernel.machine in
  let sections = ref [] in
  let pfs =
    fake_volume k.Mach.Kernel.sys ~read:(timed_read m sections ~cycles:2_000)
  in
  two_cpu_script k
    ~first:(fun () -> request_read k pfs ~mode:Shared_request ~at:1_000_000)
    ~second:(fun () -> request_read k pfs ~mode:Shared_request ~at:1_000_000);
  match List.rev !sections with
  | [ (_, s1, e1); (_, s2, e2) ] ->
      checkb "the holds overlap" true (s1 < e2 && s2 < e1);
      let ls = Mach.Sync.lock_stats (Option.get pfs.pfs_lock) in
      checki "two shared holds" 2 ls.ls_shared;
      checki "no exclusive hold" 0 ls.ls_exclusive;
      checki "no acquire waited" 0 ls.ls_waits
  | l -> Alcotest.failf "expected two sections, got %d" (List.length l)

(* (c) A reader holds the lock across a sleep; a writer queues; a reader
   that arrives after the writer queues behind it instead of joining the
   first reader, so the writer runs second. *)
let test_writer_not_passed () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let order = ref [] in
  let read _ ~off:_ ~len:_ =
    let me = (Mach.Sched.self ()).tname in
    order := me :: !order;
    if me = "r1" then
      ignore (Mach.Clock.sleep_for sys ~cycles:100_000 : kern_return);
    Ok Bytes.empty
  in
  let pfs = fake_volume sys ~read in
  let l = Option.get pfs.pfs_lock in
  let task = Mach.Kernel.task_create k ~name:"rw" () in
  let request mode () =
    let th = Mach.Sched.self () in
    th.request <- mode;
    ignore (pfs.pfs_read 1 ~off:0 ~len:0);
    th.request <- No_request;
    F.Fs_types.release_held l th
  in
  Test_util.spawn k task "r1" (request Shared_request);
  Test_util.spawn k task "w" (request Exclusive_request);
  Test_util.spawn k task "r2" (request Shared_request);
  Mach.Kernel.run k;
  Alcotest.(check (list string)) "entry order" [ "r1"; "w"; "r2" ]
    (List.rev !order)

(* (d) A mutating entry reached inside a shared request raises, whether
   or not the request already holds the lock. *)
let test_mutation_under_shared_raises () =
  let k = Test_util.kernel_on () in
  let pfs = fake_volume k.Mach.Kernel.sys ~read:(fun _ ~off:_ ~len:_ -> Ok Bytes.empty) in
  let raised f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let before, after =
    Test_util.run_in_thread k (fun () ->
        let th = Mach.Sched.self () in
        th.request <- Shared_request;
        let before =
          raised (fun () -> pfs.pfs_write 1 ~off:0 (Bytes.make 4 'w'))
        in
        ignore (pfs.pfs_read 1 ~off:0 ~len:4);
        let after =
          raised (fun () -> pfs.pfs_create ~dir:0 "g" ~is_dir:false)
        in
        th.request <- No_request;
        F.Fs_types.release_held (Option.get pfs.pfs_lock) th;
        (before, after))
  in
  checkb "a write in a shared request raises" true before;
  checkb "a create under a shared hold raises" true after

(* Machcheck's lock-overlap finding: clean on test (a)'s script under the
   real lock, and tripped by the same script under the rule the lock had
   before release stamps — an acquire stalls only when its clock falls
   inside one of the last 8 recorded holds. *)
let ring_rule_read k sections ~cycles =
  let m = k.Mach.Kernel.machine in
  let sys = k.Mach.Kernel.sys in
  let holds = ref [] in
  fun _ ~off:_ ~len ->
    let clock () = Machine.Cpu.now_exact (Machine.nth_cpu m (Machine.active m)) in
    let rec stall () =
      let now = clock () in
      match List.find_opt (fun (f, u) -> f <= now && now < u) !holds with
      | Some (_, u) ->
          Machine.Cpu.stall m.Machine.cpu
            (int_of_float (Float.ceil (u -. now)));
          stall ()
      | None -> ()
    in
    stall ();
    let from = clock () in
    let r = timed_read m sections ~cycles () ~off:0 ~len in
    let until = clock () in
    holds := List.filteri (fun i _ -> i < 8) ((from, until) :: !holds);
    Mach.Mcheck.lock_hold sys ~res:"ring" ~rdesc:"ring-rule lock"
      ~tid:(Mach.Sched.self ()).tid ~exclusive:true ~from ~until;
    r

let test_overlap_finding () =
  let overlaps f =
    match Check.with_checker true f with
    | _, Some rep -> (Check.count rep "lock_overlaps", Check.count rep "lock_holds")
    | _, None -> Alcotest.fail "ran without a checker"
  in
  let real, real_holds =
    overlaps (fun () -> ignore (exclusive_before_released_hold ()))
  in
  checki "the real lock reports both holds" 2 real_holds;
  checki "the real lock never overlaps" 0 real;
  let ring, _ =
    overlaps (fun () ->
        let k = Test_util.kernel_on ~config:(smp_config 2) () in
        let sections = ref [] in
        let read = ring_rule_read k sections ~cycles:2_000 in
        let body at () =
          start_at k at;
          ignore (read () ~off:0 ~len:8 : (bytes, fs_error) result)
        in
        two_cpu_script k ~first:(body 1_000_000) ~second:(body 999_000))
  in
  checki "the ring rule's holds overlap" 1 ring

(* Wait-for edges: a writer waits on every reader holding the lock.  Two
   readers hold mount A; the second then wants mount B, which a writer
   holds while it wants A.  The cycle runs through the second reader, so
   it is found only if the writer's edge names every reader. *)
let test_reader_writer_cycle () =
  let cycles =
    match
      Check.with_checker true (fun () ->
          let k = Test_util.kernel_on () in
          let sys = k.Mach.Kernel.sys in
          let nothing _ ~off:_ ~len:_ = Ok Bytes.empty in
          let a = fake_volume sys ~read:nothing
          and b = fake_volume sys ~read:nothing in
          let task = Mach.Kernel.task_create k ~name:"rw" () in
          let sleep n = ignore (Mach.Clock.sleep_for sys ~cycles:n : kern_return) in
          let enter mode vol =
            (Mach.Sched.self ()).request <- mode;
            ignore (vol.pfs_read 1 ~off:0 ~len:0)
          in
          Test_util.spawn k task "r1" (fun () ->
              enter Shared_request a;
              sleep 1_000_000);
          Test_util.spawn k task "r2" (fun () ->
              enter Shared_request a;
              sleep 10_000;
              ignore (b.pfs_read 1 ~off:0 ~len:0));
          Test_util.spawn k task "w" (fun () ->
              enter Exclusive_request b;
              ignore (a.pfs_read 1 ~off:0 ~len:0));
          Mach.Kernel.run k)
    with
    | _, Some rep ->
        List.filter (fun f -> f.Check.f_kind = "wait-cycle") rep.Check.findings
    | _, None -> Alcotest.fail "ran without a checker"
  in
  match cycles with
  | [ f ] ->
      checkb "the cycle names the writer" true (Test_util.contains f.Check.f_detail "mount(fake)")
  | l -> Alcotest.failf "expected one wait cycle, got %d" (List.length l)

(* A block two readers miss at once on two CPUs: the second finds the
   first's slot after its own disk wait instead of inserting a second
   one, so the table and the LRU list still agree. *)
let test_block_cache_double_miss () =
  let k = Test_util.kernel_on ~config:(smp_config 2) () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  let image = Bytes.make 512 'b' in
  Machine.Disk.write_image disk ~block:7 image;
  let cache = F.Block_cache.create k disk () in
  let got = Array.make 2 Bytes.empty in
  clients k [ 0; 1 ] (fun c ->
      start_at k 1_000_000;
      got.(c) <- F.Block_cache.read cache 7);
  Mach.Kernel.run k;
  checki "both readers missed" 2 (F.Block_cache.misses cache);
  Alcotest.(check (option int)) "one slot, LRU intact" (Some 1)
    (F.Block_cache.lru_slots cache);
  Array.iteri
    (fun c d ->
      Alcotest.(check string) (Printf.sprintf "cpu %d read the block" c)
        (Bytes.to_string image) (Bytes.to_string d))
    got

(* A restart's recovery must not reread the volume under a request the
   dead incarnation still has in flight: the serve thread holding the
   lock (parked inside a read) finishes its request first. *)
let test_recovery_waits_for_holder () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let inside = ref false and overlapped = ref false and recovered = ref false in
  let read _ ~off:_ ~len:_ =
    inside := true;
    ignore (Mach.Clock.sleep_for sys ~cycles:100_000 : kern_return);
    inside := false;
    Ok Bytes.empty
  in
  let pfs = fake_volume sys ~read in
  let task = Mach.Kernel.task_create k ~name:"incarnations" () in
  Test_util.spawn k task "old-serve" (fun () ->
      let th = Mach.Sched.self () in
      th.request <- Exclusive_request;
      ignore (pfs.pfs_read 1 ~off:0 ~len:0);
      ignore (Mach.Clock.sleep_for sys ~cycles:50_000 : kern_return);
      th.request <- No_request;
      F.Fs_types.release_held (Option.get pfs.pfs_lock) th);
  Test_util.spawn k task "restart" (fun () ->
      ignore (Mach.Clock.sleep_for sys ~cycles:10_000 : kern_return);
      ignore (pfs.pfs_recover () : recover_report);
      overlapped := !inside;
      recovered := true);
  Mach.Kernel.run k;
  checkb "recovery ran" true !recovered;
  checkb "it waited for the request in flight" false !overlapped

(* (d) One CPU, one serve thread: a fixed session script over HPFS ends
   at exactly the cycle it did with the per-entry lock that had no
   handoff and no hold intervals (the figure below was measured with
   that lock). *)
let test_one_cpu_cycle_identical () =
  let k = Test_util.kernel_on () in
  let runtime = Mk_services.Runtime.install k in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Hpfs.mkfs disk ();
  let vfs = F.Vfs.create () in
  let cache = F.Block_cache.create k disk () in
  mount vfs ~at:"/os2" (ok "mount hpfs" (F.Hpfs.mount cache ()));
  let fs = F.File_server.start k runtime vfs () in
  let sem = F.Vfs.os2_semantics in
  for c = 1 to 3 do
    let task = Mach.Kernel.task_create k ~name:(Printf.sprintf "ed%d" c) () in
    Test_util.spawn k task "edit" (fun () ->
        for s = 1 to 3 do
          let path = Printf.sprintf "/os2/c%d_%d.dat" c s in
          let h =
            ok "open" (F.File_server.Client.open_ fs sem ~path ~create:true ())
          in
          ignore
            (ok "write"
               (F.File_server.Client.write fs h (Bytes.make 1500 'e')));
          F.File_server.Client.seek fs h ~pos:0;
          ignore (ok "read" (F.File_server.Client.read fs h ~bytes:1500));
          F.File_server.Client.close fs h;
          if s = 2 then ignore (ok "unlink" (F.File_server.Client.unlink fs sem ~path))
        done;
        F.File_server.Client.sync fs)
  done;
  Mach.Kernel.run k;
  checki "requests served" 51 (F.File_server.requests_served fs);
  checki "final cycle" 5_810_675 (Machine.now k.Mach.Kernel.machine)

let suite =
  [
    Alcotest.test_case "a hold on one CPU keeps another out in time" `Quick
      test_honest_hold;
    Alcotest.test_case "open-create of one path on two CPUs is atomic" `Quick
      test_atomic_create;
    Alcotest.test_case "queued acquirers are served in arrival order" `Quick
      test_no_barging;
    Alcotest.test_case "recovery waits out a request in flight" `Quick
      test_recovery_waits_for_holder;
    Alcotest.test_case "one CPU runs cycle for cycle as before" `Quick
      test_one_cpu_cycle_identical;
    Alcotest.test_case "an exclusive acquire waits out a released hold" `Quick
      test_exclusive_waits_for_released_hold;
    Alcotest.test_case "shared holds on two CPUs overlap without waiting"
      `Quick test_shared_holds_overlap;
    Alcotest.test_case "a later reader does not pass a queued writer" `Quick
      test_writer_not_passed;
    Alcotest.test_case "a mutating entry under a shared hold raises" `Quick
      test_mutation_under_shared_raises;
    Alcotest.test_case "machcheck flags overlapping holds" `Quick
      test_overlap_finding;
    Alcotest.test_case "a writer waits on every reader" `Quick
      test_reader_writer_cycle;
    Alcotest.test_case "two readers missing one block share its slot" `Quick
      test_block_cache_double_miss;
  ]
