(* The recovery-sweep experiment: exhaustive crash-point checking of the
   journalled file system, plus the price and payoff of the journal.

   The core loop is the crash-consistency check the paper's multi-server
   design calls for: run a scripted file workload against JFS, learn how
   many disk writes it issues, then re-run it once per crash point — a
   seeded fault plan cuts disk power at write 1, write 2, ... write N —
   and after each cut recover (fresh cache, remount with journal replay,
   fsck) and verify two invariants:

   - no acknowledged operation is lost: every create/remove that
     returned [Ok] while the disk was still powered must be visible,
     byte-exact, after recovery;
   - no torn state: the recovered volume passes the full invariant scan.

   Violations surface as Machcheck "crash" findings when a checker is
   installed, and in the point records either way.  Two side series
   measure the journal's cost (cycles and disk writes per op, JFS vs the
   same format without a journal) and recovery latency (replay time as a
   function of journal fill). *)

module F = Fileserver

type crash_point = {
  cp_write : int;  (* power cut at this disk write (1-based) *)
  cp_acked : int;  (* ops acknowledged before the cut *)
  cp_replayed_txns : int;
  cp_replayed_blocks : int;
  cp_discarded : int;
  cp_fsck_findings : int;
  cp_lost : int;  (* acked ops missing/wrong after recovery *)
  cp_torn : int;  (* invariant violations after recovery *)
  cp_recovery_cycles : int;
}

type overhead_point = {
  ov_ops : int;
  ov_plain_cycles_per_op : float;  (* same format, no journal (HPFS) *)
  ov_jfs_cycles_per_op : float;
  ov_plain_disk_writes : int;
  ov_jfs_disk_writes : int;
  ov_journal_records : int;
}

type latency_point = {
  lt_ops : int;
  lt_journal_records : int;
  lt_replayed_txns : int;
  lt_replayed_blocks : int;
  lt_recovery_cycles : int;
}

type result = {
  r_seed : int;
  r_ops : int;
  r_total_writes : int;  (* disk writes the un-faulted workload issues *)
  r_checkpoints : int;  (* partial checkpoints the un-faulted run crossed *)
  r_points_checked : int;
  r_exhaustive : bool;  (* every write index was a crash point *)
  r_lost_writes : int;
  r_torn_states : int;
  r_points : crash_point list;
  r_overhead : overhead_point list;
  r_latency : latency_point list;
}

(* --- the scripted workload ----------------------------------------------- *)

(* Deterministic op list: mostly creates-with-content, every fifth op
   removes the oldest file still present, content sizes straddle the
   one-block boundary so transactions carry one to several data blocks. *)

type op = Op_create of string * bytes | Op_remove of string

let content i =
  let len = 64 + (i * 263 mod 1837) in
  Bytes.init len (fun j -> Char.chr ((i * 31 + j * 7) land 0xFF))

let script ops =
  let live = ref [] in
  let acc = ref [] in
  for i = 1 to ops do
    if i mod 5 = 0 && !live <> [] then begin
      let name = List.hd (List.rev !live) in
      live := List.filter (fun n -> n <> name) !live;
      acc := Op_remove name :: !acc
    end
    else begin
      let name = Printf.sprintf "f%03d.dat" i in
      live := name :: !live;
      acc := Op_create (name, content i) :: !acc
    end
  done;
  List.rev !acc

(* Run the script at the pfs layer (from a kernel thread: disk I/O
   blocks).  An op is {e acknowledged} — recorded in [expect] — only
   when it returned [Ok] while the disk was still powered: once the
   power cut lands, later "successes" live only in the doomed cache and
   carry no durability promise. *)
let run_script (pfs : F.Fs_types.pfs) disk ops expect =
  List.iter
    (fun op ->
      let r =
        match op with
        | Op_create (name, data) -> (
            match pfs.F.Fs_types.pfs_create ~dir:pfs.F.Fs_types.pfs_root name
                    ~is_dir:false
            with
            | Ok id -> (
                match pfs.F.Fs_types.pfs_write id ~off:0 data with
                | Ok _ -> Ok ()
                | Error e -> Error e)
            | Error e -> Error e)
        | Op_remove name ->
            pfs.F.Fs_types.pfs_remove ~dir:pfs.F.Fs_types.pfs_root name
      in
      match r with
      | Ok () when Machine.Disk.powered_on disk ->
          let name, what =
            match op with
            | Op_create (name, data) -> (name, Some data)
            | Op_remove name -> (name, None)
          in
          expect := (name, what) :: List.remove_assoc name !expect
      | Ok () | Error _ -> ())
    ops

(* Verify every acknowledged op against the recovered volume. *)
let verify (pfs : F.Fs_types.pfs) expect ~lost =
  List.iter
    (fun (name, what) ->
      let looked = pfs.F.Fs_types.pfs_lookup ~dir:pfs.F.Fs_types.pfs_root name in
      match (what, looked) with
      | Some data, Ok id -> (
          let len = Bytes.length data in
          match pfs.F.Fs_types.pfs_read id ~off:0 ~len with
          | Ok got when Bytes.equal got data -> (
              match pfs.F.Fs_types.pfs_stat id with
              | Ok st when st.F.Fs_types.st_size = len -> ()
              | Ok st ->
                  lost
                    (Printf.sprintf
                       "%s: acked size %d but recovered size %d" name len
                       st.F.Fs_types.st_size)
              | Error e ->
                  lost
                    (Printf.sprintf "%s: stat after recovery failed: %s" name
                       (F.Fs_types.fs_error_to_string e)))
          | Ok _ -> lost (Printf.sprintf "%s: content differs after recovery" name)
          | Error e ->
              lost
                (Printf.sprintf "%s: read after recovery failed: %s" name
                   (F.Fs_types.fs_error_to_string e)))
      | Some _, Error e ->
          lost
            (Printf.sprintf "%s: acked file missing after recovery (%s)" name
               (F.Fs_types.fs_error_to_string e))
      | None, Error F.Fs_types.E_not_found -> ()
      | None, Ok _ ->
          lost (Printf.sprintf "%s: acked remove resurfaced after recovery" name)
      | None, Error e ->
          lost
            (Printf.sprintf "%s: lookup after acked remove failed oddly: %s"
               name
               (F.Fs_types.fs_error_to_string e)))
    expect

(* --- Machcheck hooks ------------------------------------------------------ *)

let chk_lost sys d =
  Mach.Mcheck.on sys (fun c space -> Check.crash_lost_write c ~space d)

let chk_torn sys d =
  Mach.Mcheck.on sys (fun c space -> Check.crash_torn_state c ~space d)

(* --- one system per point ------------------------------------------------- *)

type fmt = Plain | Journalled

let boot_fs fmt =
  let m = Machine.create Machine.Config.pentium_133 in
  let k = Mach.Kernel.boot m in
  let disk = m.Machine.disk in
  (match fmt with
  | Plain -> F.Hpfs.mkfs disk ()
  | Journalled -> F.Jfs.mkfs disk ());
  let cache = F.Block_cache.create k disk () in
  let pfs =
    match
      (match fmt with
      | Plain -> F.Hpfs.mount cache ()
      | Journalled -> F.Jfs.mount cache ())
    with
    | Ok pfs -> pfs
    | Error e -> Rig.fail_fs e
  in
  (m, k, disk, cache, pfs)

let spawn_main k body =
  let task = Mach.Kernel.task_create k ~name:"recovery-sweep" () in
  ignore
    (Mach.Kernel.thread_spawn k task ~name:"driver" body : Mach.Ktypes.thread);
  Mach.Kernel.run k

(* The un-faulted reference run: how many disk writes does the workload
   issue, and how many journal checkpoints does it cross?  The write
   count is the crash-point index space — the same script under the
   same deterministic machine issues the identical write sequence, so
   "power cut at write [n]" is meaningful for n in [1 .. total]. *)
let reference_run ~ops =
  let _m, k, disk, cache, pfs = boot_fs Journalled in
  let w0 = Machine.Disk.writes_applied disk in
  let expect = ref [] in
  spawn_main k (fun () -> run_script pfs disk (script ops) expect);
  let checkpoints =
    match F.Block_cache.journal cache with
    | Some j -> F.Journal.checkpoints j
    | None -> 0
  in
  (Machine.Disk.writes_applied disk - w0, checkpoints)

let run_crash_point ~seed ~ops ~n =
  let m, k, disk, _cache, pfs = boot_fs Journalled in
  let sys = k.Mach.Kernel.sys in
  Drivers.Disk_driver.arm_faults k disk;
  let plan = Mach.Fault.create ~seed () in
  Mach.Fault.script plan ~site:(Machine.Disk.name disk) ~n
    Mach.Fault.Power_cut;
  sys.Mach.Sched.faults <- Some plan;
  let expect = ref [] in
  let lost = ref 0 in
  let torn = ref 0 in
  let rv = ref F.Journal.clean_scan in
  let fsck_count = ref 0 in
  let t0 = ref 0 in
  let t1 = ref 0 in
  spawn_main k (fun () ->
      run_script pfs disk (script ops) expect;
      (* the crash has happened (the plan cut power at write [n]); now
         play the supervised restart: faults off, power back, and a
         recovery mount against a cold cache — the dead incarnation's
         dirty blocks are gone, as they would be *)
      sys.Mach.Sched.faults <- None;
      Machine.Disk.power_restore disk;
      let cache2 = F.Block_cache.create k disk () in
      t0 := Machine.now m;
      (match F.Jfs.mount cache2 () with
      | Ok pfs2 ->
          (match F.Jfs.last_recovery cache2 with
          | Some r -> rv := r
          | None -> ());
          let findings = F.Jfs.fsck cache2 () in
          t1 := Machine.now m;
          fsck_count := List.length findings;
          List.iter
            (fun f ->
              incr torn;
              chk_torn sys (Printf.sprintf "crash@write %d: fsck: %s" n f))
            findings;
          verify pfs2 !expect ~lost:(fun detail ->
              incr lost;
              chk_lost sys (Printf.sprintf "crash@write %d: %s" n detail))
      | Error e ->
          t1 := Machine.now m;
          incr torn;
          chk_torn sys
            (Printf.sprintf "crash@write %d: recovery mount failed: %s" n
               (F.Fs_types.fs_error_to_string e)));
      Mach.Mcheck.on sys (fun c space -> Check.crash_point_checked c ~space));
  {
    cp_write = n;
    cp_acked = List.length !expect;
    cp_replayed_txns = !rv.F.Journal.rv_replayed_txns;
    cp_replayed_blocks = !rv.F.Journal.rv_replayed_blocks;
    cp_discarded = !rv.F.Journal.rv_discarded;
    cp_fsck_findings = !fsck_count;
    cp_lost = !lost;
    cp_torn = !torn;
    cp_recovery_cycles = max 0 (!t1 - !t0);
  }

(* --- journal overhead and recovery latency -------------------------------- *)

(* Same script, same extfs engine, journal on vs off: the delta is what
   write-ahead logging costs in cycles and disk traffic. *)
let run_overhead_point ~ops =
  let timed fmt =
    let m, k, disk, cache, pfs = boot_fs fmt in
    let w0 = Machine.Disk.writes_applied disk in
    let expect = ref [] in
    let t0 = ref 0 in
    let t1 = ref 0 in
    spawn_main k (fun () ->
        t0 := Machine.now m;
        run_script pfs disk (script ops) expect;
        pfs.F.Fs_types.pfs_sync ();
        t1 := Machine.now m);
    let cycles = float_of_int (max 0 (!t1 - !t0)) /. float_of_int (max 1 ops) in
    (cycles, Machine.Disk.writes_applied disk - w0, F.Extfs.journal_writes cache)
  in
  let plain_cycles, plain_writes, _ = timed Plain in
  let jfs_cycles, jfs_writes, records = timed Journalled in
  {
    ov_ops = ops;
    ov_plain_cycles_per_op = plain_cycles;
    ov_jfs_cycles_per_op = jfs_cycles;
    ov_plain_disk_writes = plain_writes;
    ov_jfs_disk_writes = jfs_writes;
    ov_journal_records = records;
  }

(* Run the workload without a sync, abandon the dirty cache (the crash),
   and time the recovery mount: replay work grows with journal fill. *)
let run_latency_point ~ops =
  let m, k, disk, cache, pfs = boot_fs Journalled in
  let expect = ref [] in
  let rv = ref F.Journal.clean_scan in
  let t0 = ref 0 in
  let t1 = ref 0 in
  spawn_main k (fun () ->
      run_script pfs disk (script ops) expect;
      let cache2 = F.Block_cache.create k disk () in
      t0 := Machine.now m;
      (match F.Jfs.mount cache2 () with
      | Ok _ -> (
          match F.Jfs.last_recovery cache2 with
          | Some r -> rv := r
          | None -> ())
      | Error e -> Rig.fail_fs e);
      t1 := Machine.now m);
  {
    lt_ops = ops;
    lt_journal_records = F.Extfs.journal_writes cache;
    lt_replayed_txns = !rv.F.Journal.rv_replayed_txns;
    lt_replayed_blocks = !rv.F.Journal.rv_replayed_blocks;
    lt_recovery_cycles = max 0 (!t1 - !t0);
  }

(* --- the sweep ------------------------------------------------------------ *)

let default_series = [ 4; 8; 16 ]

let run ?(seed = 42) ?(ops = 12) ?(max_points = 64) ?(series = default_series)
    () =
  if ops <= 0 then invalid_arg "Recovery_sweep.run: ops must be positive";
  if max_points <= 0 then
    invalid_arg "Recovery_sweep.run: max_points must be positive";
  let total, checkpoints = reference_run ~ops in
  let indices =
    if total <= max_points then List.init total (fun i -> i + 1)
    else
      (* even stride across [1 .. total], endpoints included *)
      List.init max_points (fun i ->
          1 + (i * (total - 1) / (max_points - 1)))
      |> List.sort_uniq compare
  in
  let points = List.map (fun n -> run_crash_point ~seed ~ops ~n) indices in
  let overhead = List.map (fun ops -> run_overhead_point ~ops) series in
  let latency = List.map (fun ops -> run_latency_point ~ops) series in
  {
    r_seed = seed;
    r_ops = ops;
    r_total_writes = total;
    r_checkpoints = checkpoints;
    r_points_checked = List.length points;
    r_exhaustive = total <= max_points;
    r_lost_writes = List.fold_left (fun a p -> a + p.cp_lost) 0 points;
    r_torn_states = List.fold_left (fun a p -> a + p.cp_torn) 0 points;
    r_points = points;
    r_overhead = overhead;
    r_latency = latency;
  }

let to_json r =
  let open Bench_json in
  let crash p =
    Obj
      [ ("write", int p.cp_write); ("acked_ops", int p.cp_acked);
        ("replayed_txns", int p.cp_replayed_txns);
        ("replayed_blocks", int p.cp_replayed_blocks);
        ("discarded", int p.cp_discarded);
        ("fsck_findings", int p.cp_fsck_findings); ("lost", int p.cp_lost);
        ("torn", int p.cp_torn); ("recovery_cycles", int p.cp_recovery_cycles) ]
  in
  let overhead p =
    let plain = p.ov_plain_cycles_per_op and jfs = p.ov_jfs_cycles_per_op in
    let pct = if plain > 0.0 then (jfs -. plain) /. plain *. 100.0 else 0.0 in
    Obj
      [ ("ops", int p.ov_ops); ("plain_cycles_per_op", fixed 1 plain);
        ("jfs_cycles_per_op", fixed 1 jfs); ("overhead_pct", fixed 1 pct);
        ("plain_disk_writes", int p.ov_plain_disk_writes);
        ("jfs_disk_writes", int p.ov_jfs_disk_writes);
        ("journal_records", int p.ov_journal_records) ]
  in
  let latency p =
    Obj
      [ ("ops", int p.lt_ops); ("journal_records", int p.lt_journal_records);
        ("replayed_txns", int p.lt_replayed_txns);
        ("replayed_blocks", int p.lt_replayed_blocks);
        ("recovery_cycles", int p.lt_recovery_cycles) ]
  in
  Obj
    [ ("seed", int r.r_seed); ("ops", int r.r_ops);
      ("total_writes", int r.r_total_writes);
      ("checkpoints", int r.r_checkpoints);
      ("points_checked", int r.r_points_checked);
      ("exhaustive", Bool r.r_exhaustive); ("lost_writes", int r.r_lost_writes);
      ("torn_states", int r.r_torn_states);
      ("crash_points", Arr (List.map crash r.r_points));
      ("journal_overhead", Arr (List.map overhead r.r_overhead));
      ("recovery_latency", Arr (List.map latency r.r_latency)) ]
