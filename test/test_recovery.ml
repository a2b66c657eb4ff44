(* Crash-consistency tests: disk-level fault injection, the write-ahead
   journal's durability and rollback guarantees, recovery after power
   cuts, and the exhaustive crash-point sweep at a small bound. *)

open Fileserver.Fs_types
module F = Fileserver

let ok label = Test_util.check_fs_ok label

(* Block until every submitted disk request (including reorder-held
   writes) has been applied. *)
let barrier_wait k disk =
  Mach.Sched.await k.Mach.Kernel.sys "test-barrier" (Machine.Disk.barrier disk)

(* --- disk-level fault primitives ------------------------------------------- *)

(* Submit one gather write of one-block [elems] at block 100, with a
   scripted fault at the [n]th media write, and wait for it to land.
   Returns the plan, the media writes the request counted and each
   element's block as read back. *)
let gather_write_rig ?fault elems =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  Drivers.Disk_driver.arm_faults k disk;
  let plan = Mach.Fault.create ~seed:5 () in
  Option.iter
    (fun (n, action) ->
      Mach.Fault.script plan ~site:(Machine.Disk.name disk) ~n action)
    fault;
  sys.Mach.Sched.faults <- Some plan;
  let before = Machine.Disk.writes_applied disk in
  Test_util.run_in_thread k (fun () ->
      Machine.Disk.write disk ~block:100 elems (fun () -> ());
      barrier_wait k disk);
  let landed =
    List.mapi
      (fun i _ -> Machine.Disk.read_image disk ~block:(100 + i) ~count:1)
      elems
  in
  (plan, Machine.Disk.writes_applied disk - before, landed)

let sector c = Bytes.init 512 (fun i -> Char.chr (c + (i mod 26)))

(* some 4-byte-aligned prefix of [data] landed, never the whole sector *)
let check_torn label data got =
  let keep = ref 0 in
  while !keep < 512 && Bytes.get got !keep = Bytes.get data !keep do incr keep done;
  Alcotest.(check bool) (label ^ ": not the whole sector") true (!keep < 512);
  Alcotest.(check int) (label ^ ": tear at a word boundary") 0 (!keep mod 4);
  for i = !keep to 511 do
    Alcotest.(check char) (Printf.sprintf "%s: byte %d untouched" label i) '\000'
      (Bytes.get got i)
  done

let test_torn_write_lands_prefix () =
  let data = sector 65 in
  let plan, _, landed =
    gather_write_rig ~fault:(1, Mach.Fault.Torn_write) [ data ]
  in
  Alcotest.(check int) "the tear was injected" 1
    (Mach.Fault.injected plan ~site:"hd0" Mach.Fault.Torn_write);
  check_torn "sector" data (List.hd landed)

(* Each element of a gather list is its own media write: it counts, and
   a scripted fault at write n hits element n alone. *)
let test_gather_write_per_element_faults () =
  let elems = [ sector 65; sector 70; sector 75 ] in
  let zero = Bytes.make 512 '\000' in
  let _, applied, landed = gather_write_rig elems in
  Alcotest.(check int) "one media write per element" 3 applied;
  Alcotest.(check (list bytes)) "every element landed" elems landed;
  let _, _, landed =
    gather_write_rig ~fault:(2, Mach.Fault.Power_cut) elems
  in
  Alcotest.(check (list bytes)) "a cut at element 2 lands element 1 only"
    [ List.nth elems 0; zero; zero ] landed;
  let plan, _, landed =
    gather_write_rig ~fault:(2, Mach.Fault.Torn_write) elems
  in
  Alcotest.(check int) "one tear" 1
    (Mach.Fault.injected plan ~site:"hd0" Mach.Fault.Torn_write);
  Alcotest.(check bytes) "element 1 whole" (List.nth elems 0) (List.nth landed 0);
  check_torn "element 2" (List.nth elems 1) (List.nth landed 1);
  Alcotest.(check bytes) "element 3 whole" (List.nth elems 2) (List.nth landed 2)

let drive_seeded_disk_faults ~seed =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  Drivers.Disk_driver.arm_faults k disk;
  let plan = Mach.Fault.create ~seed () in
  let site = Machine.Disk.name disk in
  let actions = Mach.Fault.[ Torn_write; Bit_rot; Reorder ] in
  List.iter (Mach.Fault.set_rate plan ~site ~ppm:120_000) actions;
  sys.Mach.Sched.faults <- Some plan;
  Test_util.run_in_thread k (fun () ->
      for i = 0 to 39 do
        Machine.Disk.write disk ~block:(100 + i)
          [ Bytes.make 512 (Char.chr (33 + i)) ]
          (fun () -> ())
      done;
      barrier_wait k disk);
  let image = Buffer.create (40 * 512) in
  for i = 0 to 39 do
    Buffer.add_bytes image (Machine.Disk.read_image disk ~block:(100 + i) ~count:1)
  done;
  ( Buffer.contents image,
    List.fold_left (fun n a -> n + Mach.Fault.injected plan ~site a) 0 actions
  )

let test_disk_faults_replay_deterministically () =
  let image_a, faults_a = drive_seeded_disk_faults ~seed:9 in
  let image_b, faults_b = drive_seeded_disk_faults ~seed:9 in
  Alcotest.(check bool) "faults were injected" true (faults_a >= 1);
  Alcotest.(check int) "same fault count" faults_a faults_b;
  Alcotest.(check string) "bit-identical disk image" image_a image_b

(* --- journal durability ------------------------------------------------------ *)

let test_jfs_commit_durable_without_sync () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Jfs.mkfs disk ();
  Test_util.run_in_thread k (fun () ->
      let cache = F.Block_cache.create k disk () in
      let pfs = ok "mount" (F.Jfs.mount cache ()) in
      let id =
        ok "create" (pfs.pfs_create ~dir:pfs.pfs_root "durable" ~is_dir:false)
      in
      let data = Bytes.of_string "journalled, never synced" in
      ignore (ok "write" (pfs.pfs_write id ~off:0 data));
      (* no sync: the home blocks exist only in the doomed cache.  A
         recovery mount against a cold cache must replay the journal. *)
      let cache2 = F.Block_cache.create k disk () in
      let pfs2 = ok "recovery mount" (F.Jfs.mount cache2 ()) in
      (match F.Jfs.last_recovery cache2 with
      | Some rv ->
          Alcotest.(check bool) "transactions replayed" true
            (rv.F.Journal.rv_replayed_txns > 0)
      | None -> Alcotest.fail "no recovery report");
      let id2 = ok "lookup" (pfs2.pfs_lookup ~dir:pfs2.pfs_root "durable") in
      Alcotest.(check bytes) "content survived" data
        (ok "read" (pfs2.pfs_read id2 ~off:0 ~len:(Bytes.length data))))

(* A commit's k+2 records (descriptor, k images, commit) go to the disk
   as one request, and the barrier rides on it; each record is still
   its own media write. *)
let test_journal_commit_one_request () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  Test_util.run_in_thread k (fun () ->
      let j =
        F.Journal.attach k disk ~start:1000 ~blocks:16
          ~home_write:(fun _ _ -> ())
          ~flush_home:(fun ~through:_ -> ())
      in
      let writes = List.init 3 (fun i -> (2000 + i, sector (65 + i))) in
      let records0 = F.Journal.records_written j in
      let applied0 = Machine.Disk.writes_applied disk in
      Machine.Disk.read disk ~block:0 ~count:1 (fun _ -> ());
      let served0 = Machine.Disk.requests_served disk in
      ignore (F.Journal.commit j writes : int);
      Alcotest.(check int) "one write" 1
        (Machine.Disk.requests_served disk - served0 - 1);
      Alcotest.(check int) "k+2 records" 5
        (F.Journal.records_written j - records0);
      Alcotest.(check int) "one media write per record" 5
        (Machine.Disk.writes_applied disk - applied0))

(* A transaction that straddles the ring's end goes out as two runs and
   still replays byte-exact on a recovery mount. *)
let test_jfs_commit_wraps_ring () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Jfs.mkfs disk ();
  Test_util.run_in_thread k (fun () ->
      let cache = F.Block_cache.create k disk () in
      let pfs = ok "mount" (F.Jfs.mount cache ()) in
      (* a fresh ring starts at seq 0 and every record advances it by
         one, so the record count is the next seq *)
      let seq () = F.Extfs.journal_writes cache in
      let ring = F.Extfs.journal_blocks cache in
      Alcotest.(check int) "the default volume's ring" 256 ring;
      let data = Bytes.init 8192 (fun i -> Char.chr (33 + (i mod 90))) in
      let id = ok "create" (pfs.pfs_create ~dir:pfs.pfs_root "wrap" ~is_dir:false) in
      let pad = ref 0 in
      (* pad with small transactions until 2..16 slots are left: the
         16-block write below (at least 18 records) must then wrap *)
      while
        let left = ring - (seq () mod ring) in
        left < 2 || left > 16
      do
        incr pad;
        ignore
          (ok "pad"
             (pfs.pfs_create ~dir:pfs.pfs_root (Printf.sprintf "p%d" !pad)
                ~is_dir:false))
      done;
      let s1 = seq () in
      ignore (ok "write" (pfs.pfs_write id ~off:0 data));
      let s2 = seq () in
      (* a checkpoint record may precede the transaction; its last record
         still lands a lap after its first *)
      Alcotest.(check bool) "the write's records straddle the ring's end" true
        ((s2 - 1) / ring > (s1 + 1) / ring);
      let cache2 = F.Block_cache.create k disk () in
      let pfs2 = ok "recovery mount" (F.Jfs.mount cache2 ()) in
      (match F.Jfs.last_recovery cache2 with
      | Some rv ->
          Alcotest.(check bool) "the wrapped transaction replayed" true
            (rv.F.Journal.rv_replayed_blocks >= 16)
      | None -> Alcotest.fail "no recovery report");
      let id2 = ok "lookup" (pfs2.pfs_lookup ~dir:pfs2.pfs_root "wrap") in
      Alcotest.(check bytes) "content survived" data
        (ok "read" (pfs2.pfs_read id2 ~off:0 ~len:(Bytes.length data))))

let test_power_cut_recovery () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Jfs.mkfs disk ();
  Drivers.Disk_driver.arm_faults k disk;
  Test_util.run_in_thread k (fun () ->
      let cache = F.Block_cache.create k disk () in
      let pfs = ok "mount" (F.Jfs.mount cache ()) in
      let plan = Mach.Fault.create ~seed:11 () in
      Mach.Fault.script plan ~site:(Machine.Disk.name disk) ~n:12
        Mach.Fault.Power_cut;
      sys.Mach.Sched.faults <- Some plan;
      let acked = ref [] in
      for i = 1 to 4 do
        let name = Printf.sprintf "f%d" i in
        let data = Bytes.make (200 * i) (Char.chr (64 + i)) in
        match pfs.pfs_create ~dir:pfs.pfs_root name ~is_dir:false with
        | Ok id -> (
            match pfs.pfs_write id ~off:0 data with
            | Ok _ when Machine.Disk.powered_on disk ->
                acked := (name, data) :: !acked
            | _ -> ())
        | Error _ -> ()
      done;
      Alcotest.(check bool) "the cut landed" false (Machine.Disk.powered_on disk);
      sys.Mach.Sched.faults <- None;
      Machine.Disk.power_restore disk;
      let cache2 = F.Block_cache.create k disk () in
      let pfs2 = ok "recovery mount" (F.Jfs.mount cache2 ()) in
      Alcotest.(check (list string)) "fsck clean" [] (F.Jfs.fsck cache2 ());
      List.iter
        (fun (name, data) ->
          let id =
            ok (name ^ " present") (pfs2.pfs_lookup ~dir:pfs2.pfs_root name)
          in
          Alcotest.(check bytes) (name ^ " byte-exact") data
            (ok "read" (pfs2.pfs_read id ~off:0 ~len:(Bytes.length data))))
        !acked)

(* --- power cuts inside a boot-time replay ------------------------------------- *)

let replay_files =
  List.init 4 (fun i ->
      (Printf.sprintf "r%d" i, Bytes.make (150 * (i + 1)) (Char.chr (97 + i))))

(* A 512-block JFS volume whose acknowledged files live only in the
   journal ring: the ops commit in a thread and their cache is dropped
   unflushed.  Returns the volume's image. *)
let crashed_replay_image () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Jfs.mkfs disk ~blocks:512 ();
  Test_util.run_in_thread k (fun () ->
      let pfs = ok "mount" (F.Jfs.mount (F.Block_cache.create k disk ()) ()) in
      List.iter
        (fun (name, data) ->
          let id =
            ok "create" (pfs.pfs_create ~dir:pfs.pfs_root name ~is_dir:false)
          in
          ignore (ok "write" (pfs.pfs_write id ~off:0 data) : int))
        replay_files);
  Machine.Disk.read_image disk ~block:0 ~count:512

(* Mount a fresh copy of [image] outside any thread, as a boot does,
   with a power cut scripted at the [cut]th media write of the mount.
   Returns the mount's media writes, the kernel and the disk. *)
let boot_replay ?cut image =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  Machine.Disk.write_image disk ~block:0 image;
  Drivers.Disk_driver.arm_faults k disk;
  let plan = Mach.Fault.create ~seed:13 () in
  Option.iter
    (fun n ->
      Mach.Fault.script plan ~site:(Machine.Disk.name disk) ~n
        Mach.Fault.Power_cut)
    cut;
  sys.Mach.Sched.faults <- Some plan;
  let applied0 = Machine.Disk.writes_applied disk in
  ignore (ok "replay mount" (F.Jfs.mount (F.Block_cache.create k disk ()) ()) : pfs);
  sys.Mach.Sched.faults <- None;
  (Machine.Disk.writes_applied disk - applied0, k, disk)

(* Restore power, mount again, and check every acknowledged file. *)
let check_replayed label k disk =
  Machine.Disk.power_restore disk;
  let cache = F.Block_cache.create k disk () in
  let pfs = ok (label ^ ": mount") (F.Jfs.mount cache ()) in
  Alcotest.(check (list string)) (label ^ ": fsck clean") [] (F.Jfs.fsck cache ());
  List.iter
    (fun (name, data) ->
      let id = ok (name ^ " present") (pfs.pfs_lookup ~dir:pfs.pfs_root name) in
      Alcotest.(check bytes) (label ^ ": " ^ name ^ " byte-exact") data
        (ok "read" (pfs.pfs_read id ~off:0 ~len:(Bytes.length data))))
    replay_files

(* A boot-time replay writes through the disk's request queue like any
   other: every block it changes on the media is a counted media write,
   and a power cut can land at each of them.  Every recovery after one
   keeps every acknowledged file. *)
let test_power_cut_in_boot_replay () =
  let image = crashed_replay_image () in
  let total, k, disk = boot_replay image in
  let after = Machine.Disk.read_image disk ~block:0 ~count:512 in
  let changed =
    List.length
      (List.filter
         (fun b -> Bytes.sub image (b * 512) 512 <> Bytes.sub after (b * 512) 512)
         (List.init 512 Fun.id))
  in
  Alcotest.(check bool) "the replay changes the media" true (changed > 0);
  Alcotest.(check bool) "each change is a counted media write" true
    (total >= changed);
  check_replayed "uncut" k disk;
  for n = 1 to total do
    let _, k, disk = boot_replay ~cut:n image in
    let label = Printf.sprintf "cut@%d/%d" n total in
    Alcotest.(check bool) (label ^ ": the cut landed") false
      (Machine.Disk.powered_on disk);
    check_replayed label k disk
  done

(* --- corrupted journal records ----------------------------------------------- *)

(* Mirrors of the record layout, for finding a record to damage. *)
let get32 b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let cksum b off len =
  let h = ref 0x811C9DC5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.get b i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let set32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

(* the newest descriptor record on the disk: its sequence and block *)
let find_newest_journal_descriptor disk =
  let best = ref None in
  for block = 0 to 4095 do
    let raw = Machine.Disk.read_image disk ~block ~count:1 in
    if
      Bytes.length raw >= 24
      && Bytes.sub_string raw 0 4 = "WJD1"
      && get32 raw 20 = cksum raw 0 20
    then
      let seq = get32 raw 4 in
      match !best with
      | Some (s, _) when s >= seq -> ()
      | _ -> best := Some (seq, block)
  done;
  !best

let test_torn_journal_record_discarded () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Jfs.mkfs disk ();
  Test_util.run_in_thread k (fun () ->
      let cache = F.Block_cache.create k disk () in
      let pfs = ok "mount" (F.Jfs.mount cache ()) in
      for i = 1 to 3 do
        let id =
          ok "create"
            (pfs.pfs_create ~dir:pfs.pfs_root (Printf.sprintf "t%d" i)
               ~is_dir:false)
        in
        ignore (ok "write" (pfs.pfs_write id ~off:0 (Bytes.make 600 'j')))
      done);
  Mach.Kernel.run k;
  (* damage the newest descriptor record — a torn write inside the
     journal itself.  Recovery must notice (checksums, slot discipline)
     and discard that transaction rather than replay garbage. *)
  (match find_newest_journal_descriptor disk with
  | Some (_, block) ->
      Machine.Disk.write_image disk ~block (Bytes.make 512 '\xAB')
  | None -> Alcotest.fail "no journal descriptor found on disk");
  Test_util.run_in_thread k (fun () ->
      let cache2 = F.Block_cache.create k disk () in
      ignore (ok "recovery mount" (F.Jfs.mount cache2 ()) : pfs);
      (match F.Jfs.last_recovery cache2 with
      | Some rv ->
          Alcotest.(check bool) "damaged txn discarded" true
            (rv.F.Journal.rv_discarded >= 1)
      | None -> Alcotest.fail "no recovery report");
      Alcotest.(check (list string)) "volume still consistent" []
        (F.Jfs.fsck cache2 ()))

(* --- descriptor-block transactions ---------------------------------------------- *)

(* The tags of the newest descriptor on [disk] with the images that
   follow it: (home block, image) in image order. *)
let newest_transaction disk =
  match find_newest_journal_descriptor disk with
  | None -> Alcotest.fail "no journal descriptor found on disk"
  | Some (_, block) ->
      let d = Machine.Disk.read_image disk ~block ~count:1 in
      List.init (get32 d 12) (fun i ->
          ( get32 d (24 + (8 * i)),
            Machine.Disk.read_image disk ~block:(block + 1 + i) ~count:1 ))

let small_write = Bytes.make 300 'q'

(* A JFS volume with an empty file "tx" durably home, then one 3-image
   transaction (a 300-byte write into it) and a sync.  [fault] scripts
   an action at media write n counted from the write's start.  Returns
   the write's record and media-write counts, then runs the body in a
   second thread against a cold cache on the repowered disk. *)
let jfs_txn_rig ?fault after =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Jfs.mkfs disk ();
  Drivers.Disk_driver.arm_faults k disk;
  let counts =
    Test_util.run_in_thread k (fun () ->
        let cache = F.Block_cache.create k disk () in
        let pfs = ok "mount" (F.Jfs.mount cache ()) in
        let id = ok "create" (pfs.pfs_create ~dir:pfs.pfs_root "tx" ~is_dir:false) in
        F.Block_cache.flush_wait cache;
        let plan = Mach.Fault.create ~seed:3 () in
        Option.iter
          (fun (n, action) ->
            Mach.Fault.script plan ~site:(Machine.Disk.name disk) ~n
              action)
          fault;
        sys.Mach.Sched.faults <- Some plan;
        let records0 = F.Extfs.journal_writes cache in
        let applied0 = Machine.Disk.writes_applied disk in
        ignore (pfs.pfs_write id ~off:0 small_write);
        let counts =
          ( F.Extfs.journal_writes cache - records0,
            Machine.Disk.writes_applied disk - applied0 )
        in
        F.Block_cache.flush_wait cache;
        counts)
  in
  sys.Mach.Sched.faults <- None;
  Machine.Disk.power_restore disk;
  (counts, Test_util.run_in_thread k (fun () -> after k disk))

(* Recover on a cold cache: the recovery report, fsck's findings, the
   home blocks [targets] as the volume now reads them, and tx's size. *)
let recover_and_read targets k disk =
  let cache = F.Block_cache.create k disk () in
  let pfs = ok "recovery mount" (F.Jfs.mount cache ()) in
  let rv =
    match F.Jfs.last_recovery cache with
    | Some rv -> rv
    | None -> Alcotest.fail "no recovery report"
  in
  let id = ok "lookup" (pfs.pfs_lookup ~dir:pfs.pfs_root "tx") in
  let size = (ok "stat" (pfs.pfs_stat id)).st_size in
  (rv, F.Jfs.fsck cache (), List.map (F.Block_cache.read cache) targets, size)

(* A transaction is all or nothing: a power cut at any of its k+2 media
   writes (the commit is the last) replays none of its images; a cut at
   the first write after the commit replays all of them. *)
let test_descriptor_txn_all_or_nothing () =
  let (records, applied), txn =
    jfs_txn_rig (fun _ disk -> newest_transaction disk)
  in
  Alcotest.(check int) "k+2 records" 5 records;
  Alcotest.(check int) "one media write per record" 5 applied;
  Alcotest.(check int) "three images" 3 (List.length txn);
  let targets = List.map fst txn and images = List.map snd txn in
  for n = 1 to 6 do
    let _, (rv, findings, homes, size) =
      jfs_txn_rig ~fault:(n, Mach.Fault.Power_cut) (recover_and_read targets)
    in
    let label = Printf.sprintf "cut@%d" n in
    Alcotest.(check (list string)) (label ^ ": fsck clean") [] findings;
    if n <= 5 then begin
      List.iter2
        (fun image home ->
          Alcotest.(check bool) (label ^ ": image not replayed") false
            (Bytes.equal image home))
        images homes;
      Alcotest.(check int) (label ^ ": write lost whole") 0 size
    end
    else begin
      Alcotest.(check (list bytes)) (label ^ ": every image replayed") images
        homes;
      Alcotest.(check bool) (label ^ ": replayed from the journal") true
        (rv.F.Journal.rv_replayed_blocks >= 3);
      Alcotest.(check int) (label ^ ": write kept") (Bytes.length small_write)
        size
    end
  done

(* Damage to the newest transaction's descriptor or images discards it.
   [damage] gets the descriptor's block and returns the (block, bytes)
   to write over it. *)
let damaged_txn_discarded label damage =
  let (_, _), (rv, findings, _, size) =
    jfs_txn_rig
      (fun k disk ->
        (match find_newest_journal_descriptor disk with
        | Some (_, block) ->
            let at, raw = damage disk block in
            Machine.Disk.write_image disk ~block:at raw
        | None -> Alcotest.fail "no journal descriptor found on disk");
        recover_and_read [] k disk)
      ~fault:(6, Mach.Fault.Power_cut)
  in
  Alcotest.(check bool) (label ^ ": transaction discarded") true
    (rv.F.Journal.rv_discarded >= 1);
  Alcotest.(check (list string)) (label ^ ": fsck clean") [] findings;
  Alcotest.(check int) (label ^ ": write not replayed") 0 size

let flip_byte disk block off =
  let raw = Machine.Disk.read_image disk ~block ~count:1 in
  Bytes.set raw off (Char.chr (Char.code (Bytes.get raw off) lxor 0x01));
  (block, raw)

let test_damaged_descriptor_or_image () =
  (* the first tag's home block: without the tag-area checksum the image
     would replay over a neighbouring block *)
  damaged_txn_discarded "tag area" (fun disk block -> flip_byte disk block 24);
  damaged_txn_discarded "image" (fun disk block ->
      flip_byte disk (block + 2) 100);
  (* a well-formed descriptor of another transaction in the slot *)
  damaged_txn_discarded "descriptor of another txn" (fun disk block ->
      let raw = Machine.Disk.read_image disk ~block ~count:1 in
      set32 raw 8 (get32 raw 8 + 1);
      set32 raw 20 (cksum raw 0 20);
      (block, raw))

(* An operation dirtying more blocks than one descriptor can tag commits
   in batches of at most 61 images, and still replays whole.  On a
   64-slot ring the second batch's checkpoint retires the first batch's
   records, so that batch must be home by then. *)
let test_oversized_op_batches () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Jfs.mkfs disk ~blocks:2048 ();
  (* every descriptor the disk sees: its image count *)
  let batches = ref [] in
  Machine.Disk.set_write_interceptor disk
    (Some
       (fun ~block:_ ~data ->
         if Bytes.sub_string data 0 4 = "WJD1" then
           batches := get32 data 12 :: !batches;
         Machine.Disk.Wf_pass));
  let data = Bytes.init (96 * 512) (fun i -> Char.chr (33 + (i mod 91))) in
  Test_util.run_in_thread k (fun () ->
      let cache = F.Block_cache.create k disk () in
      let pfs = ok "mount" (F.Jfs.mount cache ()) in
      Alcotest.(check int) "a 64-slot ring" 64 (F.Extfs.journal_blocks cache);
      let id = ok "create" (pfs.pfs_create ~dir:pfs.pfs_root "big" ~is_dir:false) in
      let j = Option.get (F.Block_cache.journal cache) in
      let checkpoints0 = F.Journal.checkpoints j in
      batches := [];
      ignore (ok "write" (pfs.pfs_write id ~off:0 data));
      let batches = List.rev !batches in
      Alcotest.(check bool) "committed in batches" true (List.length batches >= 2);
      Alcotest.(check int) "a full batch is 61 images" 61 (List.hd batches);
      List.iter
        (fun n -> Alcotest.(check bool) "at most 61 images" true (n <= 61))
        batches;
      Alcotest.(check bool) "every data block journalled" true
        (List.fold_left ( + ) 0 batches >= 96);
      Alcotest.(check bool) "the batches checkpointed" true
        (F.Journal.checkpoints j - checkpoints0 >= 2);
      (* no sync: a cold-cache mount must replay what the ring holds *)
      let cache2 = F.Block_cache.create k disk () in
      let pfs2 = ok "recovery mount" (F.Jfs.mount cache2 ()) in
      Alcotest.(check (list string)) "fsck clean" [] (F.Jfs.fsck cache2 ());
      let id2 = ok "lookup" (pfs2.pfs_lookup ~dir:pfs2.pfs_root "big") in
      Alcotest.(check bytes) "content survived" data
        (ok "read" (pfs2.pfs_read id2 ~off:0 ~len:(Bytes.length data))))

(* --- partial checkpoints ----------------------------------------------------------- *)

(* A 2048-block JFS volume has a 64-slot ring.  Each op overwrites
   block i of the preallocated file "cold" (a block no later op logs
   again) and then block 0 of "hot" (logged by every op): one
   single-image transaction each.  A partial checkpoint must write home
   every cold block whose copy it retires while the hot block, re-logged
   after S, may stay dirty. *)
let churn_ops = 32
let cold_block i = Bytes.make 512 (Char.chr (65 + (i mod 26)))
let hot_block i = Bytes.init 512 (fun j -> Char.chr ((i * 7 + j) land 0xFF))

(* Run the ops on a fresh volume, with [fault] scripted at the nth
   media write counted from the first op.  Returns the media writes and
   partial checkpoints of the ops, the number of ops acknowledged while
   the disk was powered, and the kernel and disk. *)
let churn_rig ?fault () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Jfs.mkfs disk ~blocks:2048 ();
  Drivers.Disk_driver.arm_faults k disk;
  let counts =
    Test_util.run_in_thread k (fun () ->
        let cache = F.Block_cache.create k disk () in
        let pfs = ok "mount" (F.Jfs.mount cache ()) in
        Alcotest.(check int) "a 64-slot ring" 64 (F.Extfs.journal_blocks cache);
        let file name len =
          let id = ok "create" (pfs.pfs_create ~dir:pfs.pfs_root name ~is_dir:false) in
          ignore (ok "preallocate" (pfs.pfs_write id ~off:0 (Bytes.make len '\000')));
          id
        in
        let cold = file "cold" (churn_ops * 512) and hot = file "hot" 512 in
        F.Block_cache.flush_wait cache;
        let j = Option.get (F.Block_cache.journal cache) in
        let checkpoints0 = F.Journal.checkpoints j in
        let plan = Mach.Fault.create ~seed:7 () in
        Option.iter
          (fun n ->
            Mach.Fault.script plan ~site:(Machine.Disk.name disk) ~n
              Mach.Fault.Power_cut)
          fault;
        sys.Mach.Sched.faults <- Some plan;
        let applied0 = Machine.Disk.writes_applied disk in
        let acked = ref 0 in
        for i = 0 to churn_ops - 1 do
          let w id off data = Result.is_ok (pfs.pfs_write id ~off data) in
          if w cold (i * 512) (cold_block i) && w hot 0 (hot_block i)
             && Machine.Disk.powered_on disk && !acked = i
          then incr acked
        done;
        ( Machine.Disk.writes_applied disk - applied0,
          F.Journal.checkpoints j - checkpoints0,
          !acked ))
  in
  sys.Mach.Sched.faults <- None;
  Machine.Disk.power_restore disk;
  (counts, k, disk)

(* A power cut at every media write of the ops, across at least three
   partial checkpoints: after each, a cold-cache recovery mount holds
   every acknowledged cold block byte-exact, the hot block from the last
   acknowledged op (or the one in flight), and a clean fsck. *)
let test_partial_checkpoint_crash_sweep () =
  let (total, checkpoints, acked), _, _ = churn_rig () in
  Alcotest.(check int) "every op acknowledged" churn_ops acked;
  Alcotest.(check bool) "at least three partial checkpoints" true
    (checkpoints >= 3);
  for n = 1 to total do
    let (_, _, acked), k, disk = churn_rig ~fault:n () in
    let label = Printf.sprintf "cut@%d (%d acked)" n acked in
    Test_util.run_in_thread k (fun () ->
        let cache = F.Block_cache.create k disk () in
        let pfs = ok "recovery mount" (F.Jfs.mount cache ()) in
        Alcotest.(check (list string)) (label ^ ": fsck clean") []
          (F.Jfs.fsck cache ());
        let read name ~off =
          let id = ok "lookup" (pfs.pfs_lookup ~dir:pfs.pfs_root name) in
          ok "read" (pfs.pfs_read id ~off ~len:512)
        in
        for i = 0 to acked - 1 do
          Alcotest.(check bytes)
            (Printf.sprintf "%s: cold block %d" label i)
            (cold_block i) (read "cold" ~off:(i * 512))
        done;
        let hot = read "hot" ~off:0 in
        let was i =
          if i < 0 then Bytes.equal hot (Bytes.make 512 '\000')
          else i < churn_ops && Bytes.equal hot (hot_block i)
        in
        Alcotest.(check bool) (label ^ ": hot block of the last acked op")
          true
          (was (acked - 1) || was acked))
  done

(* --- fsck --------------------------------------------------------------------- *)

let find_block_containing disk ~needle =
  let n = String.length needle in
  let found = ref None in
  for block = 0 to 8191 do
    if !found = None then begin
      let raw = Bytes.to_string (Machine.Disk.read_image disk ~block ~count:1) in
      let limit = String.length raw - n in
      let i = ref 0 in
      while !found = None && !i <= limit do
        if String.sub raw !i n = needle then found := Some block;
        incr i
      done
    end
  done;
  !found

let test_fsck_detects_corruption () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Hpfs.mkfs disk ();
  Test_util.run_in_thread k (fun () ->
      let cache = F.Block_cache.create k disk () in
      let pfs = ok "mount" (F.Hpfs.mount cache ()) in
      let id =
        ok "create"
          (pfs.pfs_create ~dir:pfs.pfs_root "zzcorrupt.me" ~is_dir:false)
      in
      ignore (ok "write" (pfs.pfs_write id ~off:0 (Bytes.make 900 'c')));
      pfs.pfs_sync ();
      Alcotest.(check (list string)) "clean before the damage" []
        (F.Hpfs.fsck cache ()));
  Mach.Kernel.run k;
  (* clobber the directory block holding the entry *)
  (match find_block_containing disk ~needle:"zzcorrupt.me" with
  | Some block -> Machine.Disk.write_image disk ~block (Bytes.make 512 '\xFF')
  | None -> Alcotest.fail "directory entry not found on disk");
  Test_util.run_in_thread k (fun () ->
      let cache2 = F.Block_cache.create k disk () in
      Alcotest.(check bool) "fsck reports the damage" true
        (F.Hpfs.fsck cache2 () <> []))

(* --- transaction rollback ------------------------------------------------------ *)

let test_jfs_rollback_on_no_space () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Jfs.mkfs disk ~blocks:512 ();
  Test_util.run_in_thread k (fun () ->
      let cache = F.Block_cache.create k disk () in
      let pfs = ok "mount" (F.Jfs.mount cache ()) in
      let id =
        ok "create" (pfs.pfs_create ~dir:pfs.pfs_root "filler" ~is_dir:false)
      in
      let chunk = Bytes.make 4096 'z' in
      let rec fill off =
        if off > 512 * 512 then Alcotest.fail "volume never filled up"
        else begin
          let free = pfs.pfs_free_blocks () in
          match pfs.pfs_write id ~off chunk with
          | Ok _ -> fill (off + 4096)
          | Error E_no_space ->
              (* the failed operation's transaction overlay was dropped:
                 no allocation it attempted may stick *)
              Alcotest.(check int) "failed op fully rolled back" free
                (pfs.pfs_free_blocks ())
          | Error e -> Alcotest.fail (fs_error_to_string e)
        end
      in
      fill 0;
      Alcotest.(check (list string)) "fsck clean after rollback" []
        (F.Jfs.fsck cache ()))

(* --- supervised restart reclaims pool pins -------------------------------------- *)

let test_restart_reclaims_pins () =
  let k = Test_util.kernel_on () in
  let runtime = Mk_services.Runtime.install k in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Hpfs.mkfs disk ();
  let vfs = F.Vfs.create () in
  let cache = F.Block_cache.create k disk () in
  (match F.Hpfs.mount cache () with
  | Ok pfs -> (
      match F.Vfs.mount vfs ~at:"/os2" pfs with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail (fs_error_to_string e));
  let fs = F.File_server.start k runtime vfs () in
  Test_util.run_in_thread k (fun () ->
      let sem = F.Vfs.os2_semantics in
      let h =
        ok "open"
          (F.File_server.Client.open_ fs sem ~path:"/os2/zc" ~create:true ())
      in
      ignore (ok "write" (F.File_server.Client.write fs h (Bytes.make 8192 'p')));
      F.File_server.Client.seek fs h ~pos:0;
      ignore (ok "read_zc" (F.File_server.Client.read_zc fs h ~bytes:8192));
      Alcotest.(check bool) "zero-copy reply pinned pool pages" true
        (F.Block_cache.pool_pinned cache > 0);
      (* crash-and-restart with the reply still outstanding: the dead
         incarnation's pins must not leak into the next one *)
      ignore (F.File_server.restart fs : Mach.Ktypes.port);
      Alcotest.(check int) "restart reclaimed every pin" 0
        (F.Block_cache.pool_pinned cache);
      match F.File_server.last_recovery fs with
      | Some rep ->
          Alcotest.(check (list string)) "recovery scan clean" []
            rep.rr_fsck_findings
      | None -> Alcotest.fail "no recovery report after restart")

(* --- the sweep at a small bound -------------------------------------------------- *)

let test_crash_enumeration_small_bound () =
  let open Workloads.Recovery_sweep in
  let r, check =
    Check.with_checker true (fun () ->
        run ~ops:2 ~max_points:32 ~series:[ 4 ] ())
  in
  Alcotest.(check bool) "every point enumerated" true r.r_exhaustive;
  Alcotest.(check bool) "points were checked" true (r.r_points_checked > 0);
  Alcotest.(check int) "no acknowledged write lost" 0 r.r_lost_writes;
  Alcotest.(check int) "no torn recovered state" 0 r.r_torn_states;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "crash@%d fsck clean" p.cp_write)
        0 p.cp_fsck_findings)
    r.r_points;
  (* acknowledged-op counts never decrease along the write axis *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "acked monotone" true (a.cp_acked <= b.cp_acked);
        monotone rest
    | _ -> ()
  in
  monotone r.r_points;
  match check with
  | Some rep ->
      Alcotest.(check int) "checker saw every point" r.r_points_checked
        (Check.count rep "crash_points");
      Alcotest.(check int) "no machcheck findings" 0 (Check.total_findings rep)
  | None -> Alcotest.fail "expected a machcheck report"

let suite =
  [
    Alcotest.test_case "torn write lands an aligned prefix" `Quick
      test_torn_write_lands_prefix;
    Alcotest.test_case "gather write faults each element" `Quick
      test_gather_write_per_element_faults;
    Alcotest.test_case "disk faults replay deterministically" `Quick
      test_disk_faults_replay_deterministically;
    Alcotest.test_case "jfs commit durable without sync" `Quick
      test_jfs_commit_durable_without_sync;
    Alcotest.test_case "journal commit is one request" `Quick
      test_journal_commit_one_request;
    Alcotest.test_case "jfs commit wraps the ring" `Quick
      test_jfs_commit_wraps_ring;
    Alcotest.test_case "power-cut recovery keeps acked writes" `Quick
      test_power_cut_recovery;
    Alcotest.test_case "power cut inside a boot-time replay" `Quick
      test_power_cut_in_boot_replay;
    Alcotest.test_case "damaged journal record discarded" `Quick
      test_torn_journal_record_discarded;
    Alcotest.test_case "descriptor transaction is all or nothing" `Quick
      test_descriptor_txn_all_or_nothing;
    Alcotest.test_case "damaged descriptor or image discarded" `Quick
      test_damaged_descriptor_or_image;
    Alcotest.test_case "oversized operation commits in batches" `Quick
      test_oversized_op_batches;
    Alcotest.test_case "partial checkpoints survive a cut at every write"
      `Quick test_partial_checkpoint_crash_sweep;
    Alcotest.test_case "fsck detects deliberate corruption" `Quick
      test_fsck_detects_corruption;
    Alcotest.test_case "jfs rolls back a failed operation" `Quick
      test_jfs_rollback_on_no_space;
    Alcotest.test_case "restart reclaims zero-copy pins" `Quick
      test_restart_reclaims_pins;
    Alcotest.test_case "crash-point enumeration (small bound)" `Quick
      test_crash_enumeration_small_bound;
  ]
