(* Tests for the file-server stack: block cache, the three physical file
   systems, the vnode/union layer and the RPC file server. *)

open Fileserver.Fs_types
module F = Fileserver

let err = Test_util.fs_error

let with_fs mk ~f =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  let cache = F.Block_cache.create k disk () in
  mk disk;
  Test_util.run_in_thread k (fun () ->
      match
        (match mk with _ -> ());
        f k cache
      with
      | x -> x)

(* helper: build kernel + cache + one mounted pfs; run body in a thread *)
let run_pfs ~mkfs ~mount body =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  mkfs disk;
  let cache = F.Block_cache.create k disk () in
  Test_util.run_in_thread k (fun () ->
      match mount cache with
      | Ok pfs -> body k pfs
      | Error e -> Alcotest.fail (fs_error_to_string e))

let run_fat body =
  run_pfs
    ~mkfs:(fun d -> F.Fat.mkfs d ())
    ~mount:(fun c -> F.Fat.mount c ())
    body

let run_hpfs body =
  run_pfs
    ~mkfs:(fun d -> F.Hpfs.mkfs d ())
    ~mount:(fun c -> F.Hpfs.mount c ())
    body

let run_jfs body =
  run_pfs
    ~mkfs:(fun d -> F.Jfs.mkfs d ())
    ~mount:(fun c -> F.Jfs.mount c ())
    body

let ok label = Test_util.check_fs_ok label

(* --- the shared physical-FS matrix -------------------------------------------- *)

(* One operation battery every format must pass identically: create,
   write, read back, grow, truncate, subdirectory, rename, remove.
   Names stay within FAT's 8.3 rules so the same script runs verbatim on
   all three formats; the journalled and HPFS variants additionally run
   their invariant scan over the final image. *)
let pfs_battery _k (pfs : pfs) =
  let root = pfs.pfs_root in
  let f = ok "create" (pfs.pfs_create ~dir:root "MATRIX.TXT" ~is_dir:false) in
  let data = Bytes.init 1500 (fun i -> Char.chr (32 + (i mod 90))) in
  Alcotest.(check int) "wrote all" 1500 (ok "write" (pfs.pfs_write f ~off:0 data));
  Alcotest.(check bytes) "round trip" data (ok "read" (pfs.pfs_read f ~off:0 ~len:1500));
  ignore (ok "overwrite" (pfs.pfs_write f ~off:700 (Bytes.make 100 '!')));
  Alcotest.(check bytes) "overwrite visible" (Bytes.make 100 '!')
    (ok "read back" (pfs.pfs_read f ~off:700 ~len:100));
  ok "truncate" (pfs.pfs_truncate f ~len:400);
  Alcotest.(check int) "shrunk" 400 (ok "stat" (pfs.pfs_stat f)).st_size;
  let d = ok "mkdir" (pfs.pfs_create ~dir:root "SUB" ~is_dir:true) in
  let g = ok "create nested" (pfs.pfs_create ~dir:d "INNER.DAT" ~is_dir:false) in
  ignore (ok "write nested" (pfs.pfs_write g ~off:0 (Bytes.of_string "inner")));
  Alcotest.(check (list string)) "nested listing" [ "INNER.DAT" ]
    (ok "readdir" (pfs.pfs_readdir ~dir:d));
  ok "rename" (pfs.pfs_rename ~src_dir:root "MATRIX.TXT" ~dst_dir:d "MOVED.TXT");
  (match pfs.pfs_lookup ~dir:root "MATRIX.TXT" with
  | Error E_not_found -> ()
  | _ -> Alcotest.fail "source name survived rename");
  let f' = ok "lookup moved" (pfs.pfs_lookup ~dir:d "MOVED.TXT") in
  Alcotest.(check int) "rename kept inode" f f';
  ok "remove nested" (pfs.pfs_remove ~dir:d "INNER.DAT");
  ok "remove moved" (pfs.pfs_remove ~dir:d "MOVED.TXT");
  ok "remove dir" (pfs.pfs_remove ~dir:root "SUB");
  Alcotest.(check (list string)) "root empty again" []
    (ok "readdir root" (pfs.pfs_readdir ~dir:root));
  pfs.pfs_sync ()

let run_matrix ~mkfs ~mount ~fsck () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  mkfs disk;
  let cache = F.Block_cache.create k disk () in
  Test_util.run_in_thread k (fun () ->
      (match mount cache with
      | Ok pfs -> pfs_battery k pfs
      | Error e -> Alcotest.fail (fs_error_to_string e));
      match fsck with
      | Some scan ->
          Alcotest.(check (list string)) "invariant scan clean" [] (scan cache)
      | None -> ())

let test_matrix_fat () =
  run_matrix
    ~mkfs:(fun d -> F.Fat.mkfs d ())
    ~mount:(fun c -> F.Fat.mount c ())
    ~fsck:None ()

let test_matrix_hpfs () =
  run_matrix
    ~mkfs:(fun d -> F.Hpfs.mkfs d ())
    ~mount:(fun c -> F.Hpfs.mount c ())
    ~fsck:(Some (fun c -> F.Hpfs.fsck c ())) ()

let test_matrix_jfs () =
  run_matrix
    ~mkfs:(fun d -> F.Jfs.mkfs d ())
    ~mount:(fun c -> F.Jfs.mount c ())
    ~fsck:(Some (fun c -> F.Jfs.fsck c ())) ()

(* --- block cache ------------------------------------------------------------ *)

let test_block_cache () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  let cache = F.Block_cache.create k disk ~capacity:4 () in
  Test_util.run_in_thread k (fun () ->
      let b = Bytes.make 512 'a' in
      F.Block_cache.write cache 3 b;
      Alcotest.(check bytes) "read back" b (F.Block_cache.read cache 3);
      Alcotest.(check bool) "hits counted" true (F.Block_cache.hits cache >= 1);
      (* overflow the capacity to force write-back of the dirty block *)
      for i = 10 to 16 do
        F.Block_cache.write cache i (Bytes.make 512 (Char.chr (i + 48)))
      done;
      Alcotest.(check bool) "write-back happened" true
        (F.Block_cache.writebacks cache >= 1));
  (* after the run, the evicted dirty block must be on disk *)
  Mach.Kernel.run k;
  let on_disk = Machine.Disk.read_image disk ~block:3 ~count:1 in
  Alcotest.(check bytes) "persisted through eviction" (Bytes.make 512 'a') on_disk

(* A flush writes back in block order, one gather request per run of
   consecutive dirty blocks: {3, 4, 5, 9} is two requests, four blocks. *)
let test_flush_clusters_runs () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  let cache = F.Block_cache.create k disk () in
  let data b = Bytes.make 512 (Char.chr (64 + b)) in
  let blocks = [ 9; 4; 3; 5 ] in
  Test_util.run_in_thread k (fun () ->
      List.iter (fun b -> F.Block_cache.write cache b (data b)) blocks;
      let requests = Machine.Disk.requests_served disk in
      let writebacks = F.Block_cache.writebacks cache in
      F.Block_cache.flush_wait cache;
      Alcotest.(check int) "one request per run" 2
        (Machine.Disk.requests_served disk - requests);
      Alcotest.(check int) "writebacks count blocks" 4
        (F.Block_cache.writebacks cache - writebacks));
  List.iter
    (fun b ->
      Alcotest.(check bytes) (Printf.sprintf "block %d on the media" b) (data b)
        (Machine.Disk.read_image disk ~block:b ~count:1))
    blocks

(* Each block of a clustered writeback is still its own media write: a
   scripted power cut at the second block of a three-block run lands the
   first and neither of the others. *)
let test_flush_power_cut_mid_cluster () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  let cache = F.Block_cache.create k disk () in
  Drivers.Disk_driver.arm_faults k disk;
  let plan = Mach.Fault.create ~seed:5 () in
  Mach.Fault.script plan ~site:(Machine.Disk.name disk) ~n:2
    Mach.Fault.Power_cut;
  k.Mach.Kernel.sys.Mach.Sched.faults <- Some plan;
  let data b = Bytes.make 512 (Char.chr (64 + b)) in
  Test_util.run_in_thread k (fun () ->
      List.iter (fun b -> F.Block_cache.write cache b (data b)) [ 10; 11; 12 ];
      F.Block_cache.flush_wait cache);
  let zero = Bytes.make 512 '\000' in
  let on_media b = Machine.Disk.read_image disk ~block:b ~count:1 in
  Alcotest.(check bytes) "the first block landed" (data 10) (on_media 10);
  Alcotest.(check bytes) "the cut block did not" zero (on_media 11);
  Alcotest.(check bytes) "nor the one after it" zero (on_media 12)

(* Outside any thread, a durable flush still waits for every write
   submitted before it: block 500 is in flight when the cache flushes
   block 501, and both are on the media when [flush_wait] returns. *)
let test_flush_wait_outside_thread () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  let cache = F.Block_cache.create k disk () in
  let data b = Bytes.make 512 (Char.chr (b - 400)) in
  Machine.Disk.write disk ~block:500 [ data 500 ] (fun () -> ());
  F.Block_cache.write cache 501 (data 501);
  F.Block_cache.flush_wait cache;
  List.iter
    (fun b ->
      Alcotest.(check bytes) (Printf.sprintf "block %d on the media" b) (data b)
        (Machine.Disk.read_image disk ~block:b ~count:1))
    [ 500; 501 ]

(* --- FAT --------------------------------------------------------------------- *)

let test_fat_names () =
  Alcotest.(check (result string err)) "simple" (Ok "README.TXT")
    (F.Fat.valid_name "readme.txt");
  Alcotest.(check (result string err)) "no extension" (Ok "MAKEFILE")
    (F.Fat.valid_name "Makefile");
  Alcotest.(check (result string err)) "too long" (Error E_name_too_long)
    (F.Fat.valid_name "averylongfilename.txt");
  Alcotest.(check (result string err)) "long extension" (Error E_name_too_long)
    (F.Fat.valid_name "a.conf");
  Alcotest.(check (result string err)) "bad chars" (Error E_bad_name)
    (F.Fat.valid_name "a b.txt")

let test_fat_create_read_write () =
  run_fat (fun _k pfs ->
      let id = ok "create" (pfs.pfs_create ~dir:pfs.pfs_root "HELLO.TXT" ~is_dir:false) in
      let data = Bytes.of_string "hello, workplace os" in
      let n = ok "write" (pfs.pfs_write id ~off:0 data) in
      Alcotest.(check int) "wrote all" (Bytes.length data) n;
      let got = ok "read" (pfs.pfs_read id ~off:0 ~len:100) in
      Alcotest.(check bytes) "round trip" data got;
      let got = ok "read middle" (pfs.pfs_read id ~off:7 ~len:9) in
      Alcotest.(check string) "offset read" "workplace" (Bytes.to_string got);
      let st = ok "stat" (pfs.pfs_stat id) in
      Alcotest.(check int) "size" (Bytes.length data) st.st_size;
      Alcotest.(check bool) "not dir" false st.st_is_dir)

let test_fat_case_folding () =
  run_fat (fun _k pfs ->
      let id = ok "create" (pfs.pfs_create ~dir:pfs.pfs_root "Mixed.Txt" ~is_dir:false) in
      let found = ok "lookup other case" (pfs.pfs_lookup ~dir:pfs.pfs_root "MIXED.TXT") in
      Alcotest.(check int) "same file" id found;
      let names = ok "readdir" (pfs.pfs_readdir ~dir:pfs.pfs_root) in
      Alcotest.(check (list string)) "stored upper-cased" [ "MIXED.TXT" ] names)

let test_fat_long_name_rejected () =
  run_fat (fun _k pfs ->
      match pfs.pfs_create ~dir:pfs.pfs_root "longfilename.text" ~is_dir:false with
      | Error E_name_too_long -> ()
      | Error e -> Alcotest.fail (fs_error_to_string e)
      | Ok _ -> Alcotest.fail "FAT accepted a long name")

let test_fat_subdirs_and_remove () =
  run_fat (fun _k pfs ->
      let d = ok "mkdir" (pfs.pfs_create ~dir:pfs.pfs_root "SUB" ~is_dir:true) in
      let f = ok "create in sub" (pfs.pfs_create ~dir:d "A.TXT" ~is_dir:false) in
      Alcotest.(check (list string)) "listing" [ "A.TXT" ]
        (ok "readdir" (pfs.pfs_readdir ~dir:d));
      (match pfs.pfs_remove ~dir:pfs.pfs_root "SUB" with
      | Error E_dir_not_empty -> ()
      | _ -> Alcotest.fail "removed a non-empty directory");
      ignore f;
      ok "remove file" (pfs.pfs_remove ~dir:d "A.TXT");
      ok "remove dir" (pfs.pfs_remove ~dir:pfs.pfs_root "SUB");
      Alcotest.(check (list string)) "root empty" []
        (ok "readdir" (pfs.pfs_readdir ~dir:pfs.pfs_root)))

let test_fat_grows_across_clusters () =
  run_fat (fun _k pfs ->
      let id = ok "create" (pfs.pfs_create ~dir:pfs.pfs_root "BIG.BIN" ~is_dir:false) in
      let chunk = Bytes.make 700 'q' in
      for i = 0 to 9 do
        ignore (ok "write chunk" (pfs.pfs_write id ~off:(i * 700) chunk))
      done;
      let st = ok "stat" (pfs.pfs_stat id) in
      Alcotest.(check int) "size" 7000 st.st_size;
      Alcotest.(check bool) "many clusters" true (st.st_blocks >= 14);
      let got = ok "read tail" (pfs.pfs_read id ~off:6500 ~len:1000) in
      Alcotest.(check int) "clamped at EOF" 500 (Bytes.length got))

let test_fat_persistence () =
  (* write through one mount, re-mount with a fresh cache, read back *)
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Fat.mkfs disk ();
  Test_util.run_in_thread k (fun () ->
      let cache = F.Block_cache.create k disk () in
      let pfs = ok "mount" (F.Fat.mount cache ()) in
      let id = ok "create" (pfs.pfs_create ~dir:pfs.pfs_root "KEEP.DAT" ~is_dir:false) in
      ignore (ok "write" (pfs.pfs_write id ~off:0 (Bytes.of_string "persistent!")));
      pfs.pfs_sync ());
  (* drain the flush I/O *)
  Mach.Kernel.run k;
  let k2 = Test_util.kernel_on () in
  ignore k2;
  Test_util.run_in_thread k (fun () ->
      let cache2 = F.Block_cache.create k disk ~capacity:64 () in
      let pfs2 = ok "re-mount" (F.Fat.mount cache2 ()) in
      let id = ok "lookup" (pfs2.pfs_lookup ~dir:pfs2.pfs_root "KEEP.DAT") in
      let got = ok "read" (pfs2.pfs_read id ~off:0 ~len:64) in
      Alcotest.(check string) "survived remount" "persistent!" (Bytes.to_string got))

(* --- HPFS / JFS --------------------------------------------------------------- *)

let test_hpfs_long_names_case_insensitive () =
  run_hpfs (fun _k pfs ->
      let name = "A Rather Long HPFS File Name.document" in
      let id = ok "create" (pfs.pfs_create ~dir:pfs.pfs_root name ~is_dir:false) in
      let found = ok "case-insensitive lookup"
          (pfs.pfs_lookup ~dir:pfs.pfs_root (String.uppercase_ascii name))
      in
      Alcotest.(check int) "same file" id found;
      let names = ok "readdir" (pfs.pfs_readdir ~dir:pfs.pfs_root) in
      Alcotest.(check (list string)) "case preserved" [ name ] names)

let test_jfs_case_sensitive () =
  run_jfs (fun _k pfs ->
      let a = ok "create lower" (pfs.pfs_create ~dir:pfs.pfs_root "name" ~is_dir:false) in
      let b = ok "create upper" (pfs.pfs_create ~dir:pfs.pfs_root "NAME" ~is_dir:false) in
      Alcotest.(check bool) "distinct files" true (a <> b);
      match pfs.pfs_lookup ~dir:pfs.pfs_root "NaMe" with
      | Error E_not_found -> ()
      | _ -> Alcotest.fail "case-sensitive lookup matched wrong case")

let test_jfs_journal_writes () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Jfs.mkfs disk ();
  F.Hpfs.mkfs disk ~start:9000 ();
  let cache = F.Block_cache.create k disk ~capacity:512 () in
  Test_util.run_in_thread k (fun () ->
      let jfs = ok "mount jfs" (F.Jfs.mount cache ()) in
      let hpfs = ok "mount hpfs" (F.Hpfs.mount cache ~start:9000 ()) in
      let j0 = F.Extfs.journal_writes cache in
      ignore (ok "jfs create" (jfs.pfs_create ~dir:jfs.pfs_root "j" ~is_dir:false));
      let j_delta = F.Extfs.journal_writes cache - j0 in
      Alcotest.(check bool) "jfs journals metadata" true (j_delta > 0);
      let j1 = F.Extfs.journal_writes cache in
      ignore (ok "hpfs create" (hpfs.pfs_create ~dir:hpfs.pfs_root "h" ~is_dir:false));
      Alcotest.(check int) "hpfs does not journal" j1 (F.Extfs.journal_writes cache))

(* A mount's journal statistics live in the journal, which the cache
   reaches: once every handle is dropped the cache — and the whole
   simulated machine it holds — is garbage. *)
let test_jfs_mount_releases_cache () =
  let w = Weak.create 1 in
  let[@inline never] mount_and_drop () =
    let k = Test_util.kernel_on () in
    let disk = k.Mach.Kernel.machine.Machine.disk in
    F.Jfs.mkfs disk ();
    let cache = F.Block_cache.create k disk () in
    ignore (ok "mount jfs" (F.Jfs.mount cache ()) : pfs);
    Weak.set w 0 (Some cache)
  in
  mount_and_drop ();
  Gc.full_major ();
  Alcotest.(check bool) "cache collected" false (Weak.check w 0)

let test_extfs_rename_and_truncate () =
  run_jfs (fun _k pfs ->
      let id = ok "create" (pfs.pfs_create ~dir:pfs.pfs_root "old" ~is_dir:false) in
      ignore (ok "write" (pfs.pfs_write id ~off:0 (Bytes.make 2000 'x')));
      ok "rename" (pfs.pfs_rename ~src_dir:pfs.pfs_root "old" ~dst_dir:pfs.pfs_root "new");
      (match pfs.pfs_lookup ~dir:pfs.pfs_root "old" with
      | Error E_not_found -> ()
      | _ -> Alcotest.fail "old name survived rename");
      let id2 = ok "lookup new" (pfs.pfs_lookup ~dir:pfs.pfs_root "new") in
      Alcotest.(check int) "same inode" id id2;
      ok "truncate" (pfs.pfs_truncate id2 ~len:100);
      let st = ok "stat" (pfs.pfs_stat id2) in
      Alcotest.(check int) "shrunk" 100 st.st_size)

let test_extfs_sparse_and_holes () =
  run_hpfs (fun _k pfs ->
      let id = ok "create" (pfs.pfs_create ~dir:pfs.pfs_root "gap" ~is_dir:false) in
      ignore (ok "write at offset" (pfs.pfs_write id ~off:3000 (Bytes.of_string "end")));
      let st = ok "stat" (pfs.pfs_stat id) in
      Alcotest.(check int) "size extends" 3003 st.st_size;
      let got = ok "read hole" (pfs.pfs_read id ~off:0 ~len:4) in
      Alcotest.(check bytes) "holes read as zero" (Bytes.make 4 '\000') got)

(* --- VFS / union semantics ------------------------------------------------------ *)

let setup_vfs k =
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Fat.mkfs disk ~start:0 ~blocks:4096 ();
  F.Hpfs.mkfs disk ~start:8192 ~blocks:4096 ();
  F.Jfs.mkfs disk ~start:16384 ~blocks:4096 ();
  let cache = F.Block_cache.create k disk ~capacity:512 () in
  let vfs = F.Vfs.create () in
  let mnt label r =
    match r with
    | Ok pfs -> (
        match F.Vfs.mount vfs ~at:label pfs with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
    | Error e -> Alcotest.fail (fs_error_to_string e)
  in
  mnt "/c" (F.Fat.mount cache ~start:0 ());
  mnt "/os2" (F.Hpfs.mount cache ~start:8192 ());
  mnt "/aix" (F.Jfs.mount cache ~start:16384 ());
  vfs

let test_vfs_union_semantics () =
  let k = Test_util.kernel_on () in
  Test_util.run_in_thread k (fun () ->
      let vfs = setup_vfs k in
      Alcotest.(check (list (pair string string))) "mount table"
        [ ("/c", "fat"); ("/os2", "hpfs"); ("/aix", "jfs") ]
        (F.Vfs.mounts vfs);
      (* a UNIX client on FAT: long names cannot be stored *)
      (match F.Vfs.create_file vfs F.Vfs.unix_semantics ~path:"/c/long-name.file" with
      | Error E_name_too_long -> ()
      | _ -> Alcotest.fail "long name on FAT should fail");
      (* a UNIX client on HPFS: case folding is a counted compromise *)
      let c0 = F.Vfs.compromises vfs in
      ignore (ok "create" (F.Vfs.create_file vfs F.Vfs.unix_semantics ~path:"/os2/File"));
      let (_ : F.Fs_types.stat) =
        ok "stat folds case" (F.Vfs.stat vfs F.Vfs.unix_semantics ~path:"/os2/FILE")
      in
      Alcotest.(check bool) "compromise counted" true (F.Vfs.compromises vfs > c0);
      (* the same path on JFS is honestly case-sensitive: no compromise,
         and the lookup fails *)
      ignore (ok "create aix" (F.Vfs.create_file vfs F.Vfs.unix_semantics ~path:"/aix/File"));
      (match F.Vfs.stat vfs F.Vfs.unix_semantics ~path:"/aix/FILE" with
      | Error E_not_found -> ()
      | _ -> Alcotest.fail "JFS should be case-sensitive");
      (* OS/2 semantics work across all three *)
      ignore (ok "os2 on fat" (F.Vfs.create_file vfs F.Vfs.os2_semantics ~path:"/c/CONFIG.SYS"));
      let (_ : F.Fs_types.stat) =
        ok "os2 stat" (F.Vfs.stat vfs F.Vfs.os2_semantics ~path:"/c/config.sys")
      in
      ())

let test_vfs_paths () =
  let k = Test_util.kernel_on () in
  Test_util.run_in_thread k (fun () ->
      let vfs = setup_vfs k in
      let sem = F.Vfs.os2_semantics in
      ignore (ok "mkdir" (F.Vfs.mkdir vfs sem ~path:"/os2/dir"));
      ignore (ok "nested" (F.Vfs.create_file vfs sem ~path:"/os2/dir/inner.txt"));
      Alcotest.(check (list string)) "readdir" [ "inner.txt" ]
        (ok "readdir" (F.Vfs.readdir vfs sem ~path:"/os2/dir"));
      ok "rename" (F.Vfs.rename vfs sem ~src:"/os2/dir/inner.txt" ~dst:"/os2/dir/renamed.txt");
      ok "unlink" (F.Vfs.unlink vfs sem ~path:"/os2/dir/renamed.txt");
      (match F.Vfs.rename vfs sem ~src:"/os2/dir" ~dst:"/aix/dir" with
      | Error (E_io _) -> ()
      | _ -> Alcotest.fail "cross-mount rename should fail");
      match F.Vfs.stat vfs sem ~path:"/nosuch/file" with
      | Error E_not_found -> ()
      | _ -> Alcotest.fail "unknown mount resolved")

(* --- the file server over RPC ---------------------------------------------------- *)

(* A file server over a fresh HPFS volume at /os2, behind a cold cache. *)
let hpfs_server ?server_threads k =
  let runtime = Mk_services.Runtime.install k in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Hpfs.mkfs disk ();
  let vfs = F.Vfs.create () in
  let cache = F.Block_cache.create k disk () in
  (match F.Vfs.mount vfs ~at:"/os2" (ok "mount hpfs" (F.Hpfs.mount cache ()))
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (F.File_server.start k runtime vfs ?server_threads (), cache)

let with_file_server f =
  let k = Test_util.kernel_on () in
  let fs, _ = hpfs_server k in
  Test_util.run_in_thread k (fun () -> f k fs)

let test_file_server_client () =
  with_file_server (fun _k fs ->
      let sem = F.Vfs.os2_semantics in
      let h =
        ok "open+create"
          (F.File_server.Client.open_ fs sem ~path:"/os2/report.txt" ~create:true ())
      in
      Alcotest.(check int) "port per open file" 1 (F.File_server.open_files fs);
      let n = ok "write" (F.File_server.Client.write fs h (Bytes.of_string "data data")) in
      Alcotest.(check int) "wrote" 9 n;
      F.File_server.Client.seek fs h ~pos:5;
      let got = ok "read" (F.File_server.Client.read fs h ~bytes:4) in
      Alcotest.(check string) "positioned read" "data" (Bytes.to_string got);
      F.File_server.Client.close fs h;
      Alcotest.(check int) "closed" 0 (F.File_server.open_files fs);
      (* path ops *)
      ok "mkdir" (F.File_server.Client.mkdir fs sem ~path:"/os2/work");
      let names = ok "readdir" (F.File_server.Client.readdir fs sem ~path:"/os2") in
      Alcotest.(check (list string)) "listing" [ "report.txt"; "work" ] names;
      let st = ok "stat" (F.File_server.Client.stat fs sem ~path:"/os2/report.txt") in
      Alcotest.(check int) "size" 9 st.st_size;
      ok "rename" (F.File_server.Client.rename fs sem ~src:"/os2/report.txt"
                      ~dst:"/os2/work/report.txt");
      ok "unlink" (F.File_server.Client.unlink fs sem ~path:"/os2/work/report.txt");
      match F.File_server.Client.open_ fs sem ~path:"/os2/nope" () with
      | Error E_not_found -> ()
      | _ -> Alcotest.fail "open of missing file succeeded")

let test_file_server_mapped_read () =
  with_file_server (fun k fs ->
      let sem = F.Vfs.os2_semantics in
      let h =
        ok "open" (F.File_server.Client.open_ fs sem ~path:"/os2/big" ~create:true ())
      in
      ignore (ok "write" (F.File_server.Client.write fs h (Bytes.make 4096 'm')));
      F.File_server.Client.seek fs h ~pos:0;
      let self = Mach.Sched.self () in
      let entries0 = Mach.Vm.entry_count self.Mach.Ktypes.t_task in
      let n1 = ok "mapped read 1" (F.File_server.Client.read_mapped fs h ~bytes:2048) in
      Alcotest.(check int) "bytes available" 2048 n1;
      Alcotest.(check int) "buffer mapped into client" (entries0 + 1)
        (Mach.Vm.entry_count self.Mach.Ktypes.t_task);
      let n2 = ok "mapped read 2" (F.File_server.Client.read_mapped fs h ~bytes:2048) in
      Alcotest.(check int) "second read" 2048 n2;
      Alcotest.(check int) "no second mapping" (entries0 + 1)
        (Mach.Vm.entry_count self.Mach.Ktypes.t_task);
      ignore k;
      F.File_server.Client.close fs h)

let test_file_server_zero_copy () =
  with_file_server (fun _k fs ->
      let sem = F.Vfs.os2_semantics in
      let h =
        ok "open" (F.File_server.Client.open_ fs sem ~path:"/os2/zc" ~create:true ())
      in
      let data = Bytes.init 8192 (fun i -> Char.chr (i land 0x7f)) in
      let self = (Mach.Sched.self ()).Mach.Ktypes.t_task in
      let entries0 = Mach.Vm.entry_count self in
      let n = ok "write_zc" (F.File_server.Client.write_zc fs h data) in
      Alcotest.(check int) "donated write" 8192 n;
      Alcotest.(check int) "donated buffer torn down" entries0
        (Mach.Vm.entry_count self);
      F.File_server.Client.seek fs h ~pos:0;
      let got = ok "read_zc" (F.File_server.Client.read_zc fs h ~bytes:8192) in
      Alcotest.(check bytes) "round trip" data got;
      Alcotest.(check int) "reply mapping torn down" entries0
        (Mach.Vm.entry_count self);
      (* the next request drops the previous reply's pin, so the pool
         can be reused for a second read *)
      F.File_server.Client.seek fs h ~pos:0;
      let got2 = ok "read_zc again" (F.File_server.Client.read_zc fs h ~bytes:4096) in
      Alcotest.(check bytes) "prefix" (Bytes.sub data 0 4096) got2;
      F.File_server.Client.close fs h)

let test_stale_handle () =
  with_file_server (fun _k fs ->
      let sem = F.Vfs.os2_semantics in
      let h = ok "open" (F.File_server.Client.open_ fs sem ~path:"/os2/f" ~create:true ()) in
      F.File_server.Client.close fs h;
      match F.File_server.Client.read fs h ~bytes:10 with
      | Error E_bad_handle -> ()
      | _ -> Alcotest.fail "stale handle accepted")

(* FAT has no zero-copy pool and no journal: a zero-copy read comes back
   by the copy path without pinning a pool page, and a restart recovers
   with nothing to replay and nothing for a scan to find. *)
let test_file_server_fat () =
  let k = Test_util.kernel_on () in
  let runtime = Mk_services.Runtime.install k in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Fat.mkfs disk ();
  let vfs = F.Vfs.create () in
  let cache = F.Block_cache.create k disk () in
  (match F.Vfs.mount vfs ~at:"/c" (ok "mount fat" (F.Fat.mount cache ())) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let fs = F.File_server.start k runtime vfs () in
  Test_util.run_in_thread k (fun () ->
      let sem = F.Vfs.os2_semantics in
      let h =
        ok "open"
          (F.File_server.Client.open_ fs sem ~path:"/c/ZC.DAT" ~create:true ())
      in
      let data = Bytes.init 4096 (fun i -> Char.chr (i land 0x7f)) in
      ignore (ok "write" (F.File_server.Client.write fs h data) : int);
      F.File_server.Client.seek fs h ~pos:0;
      let got = ok "read_zc" (F.File_server.Client.read_zc fs h ~bytes:4096) in
      Alcotest.(check bytes) "copy path returns the written bytes" data got;
      Alcotest.(check int) "no pool page pinned" 0
        (F.Block_cache.pool_pinned cache);
      ignore (F.File_server.restart fs : Mach.Ktypes.port);
      match F.File_server.last_recovery fs with
      | Some rep ->
          Alcotest.(check int) "nothing replayed" 0 rep.rr_journal_txns;
          Alcotest.(check (list string)) "no fsck findings" []
            rep.rr_fsck_findings
      | None -> Alcotest.fail "no recovery report after restart")

let test_map_file () =
  with_file_server (fun k fs ->
      let sem = F.Vfs.os2_semantics in
      (* create a 3-page file *)
      let h = ok "open" (F.File_server.Client.open_ fs sem ~path:"/os2/img" ~create:true ()) in
      ignore (ok "write" (F.File_server.Client.write fs h (Bytes.make 12288 'i')));
      F.File_server.Client.close fs h;
      let self = (Mach.Sched.self ()).Mach.Ktypes.t_task in
      let addr, size =
        ok "map" (F.File_server.map_file fs sem self ~path:"/os2/img")
      in
      Alcotest.(check int) "mapped size" 12288 size;
      let sys = k.Mach.Kernel.sys in
      Mach.Vm.touch sys self ~addr ~bytes:12288 ();
      Alcotest.(check int) "one pager read per page" 3
        (F.File_server.mapped_pageins fs);
      (* warm: no further pager traffic *)
      Mach.Vm.touch sys self ~addr ~bytes:12288 ();
      Alcotest.(check int) "warm" 3 (F.File_server.mapped_pageins fs);
      match F.File_server.map_file fs sem self ~path:"/os2/nosuch" with
      | Error E_not_found -> ()
      | _ -> Alcotest.fail "mapped a missing file")

(* Two serve threads creating in one HPFS directory over a cold cache.
   A create reads the directory, may block on a miss, then rewrites the
   whole entry list; without the per-mount lock the other thread's
   create in between is lost or cut in half. *)
let test_concurrent_creates () =
  let k = Test_util.kernel_on () in
  let fs, cache = hpfs_server ~server_threads:2 k in
  let sem = F.Vfs.os2_semantics in
  let names = ref [] in
  for c = 1 to 3 do
    let task =
      Mach.Kernel.task_create k ~name:(Printf.sprintf "creator%d" c) ()
    in
    Test_util.spawn k task "create" (fun () ->
        for i = 1 to 4 do
          let name = Printf.sprintf "c%d_%d" c i in
          let h =
            ok name
              (F.File_server.Client.open_ fs sem ~path:("/os2/" ^ name)
                 ~create:true ())
          in
          F.File_server.Client.close fs h;
          names := name :: !names
        done)
  done;
  Mach.Kernel.run k;
  Alcotest.(check int) "every create acknowledged" 12 (List.length !names);
  let listed =
    Test_util.run_in_thread k (fun () ->
        ok "readdir" (F.File_server.Client.readdir fs sem ~path:"/os2"))
  in
  Alcotest.(check (list string)) "every entry found"
    (List.sort compare !names) listed;
  Alcotest.(check (list string)) "fsck clean" [] (F.Hpfs.fsck cache ())

(* A serve thread killed while it holds the mount lock (parked on a disk
   read inside a lookup) must not wedge the next incarnation: the lock
   is incarnation state, freed by the restart. *)
let test_restart_frees_mount_lock () =
  let k = Test_util.kernel_on () in
  let sys = k.Mach.Kernel.sys in
  let fs, _ = hpfs_server k in
  let sem = F.Vfs.os2_semantics in
  let victim = Mach.Kernel.task_create k ~name:"victim" () in
  Test_util.spawn k victim "stat" (fun () ->
      ignore (F.File_server.Client.stat fs sem ~path:"/os2/f"));
  let created =
    Test_util.run_in_thread k (fun () ->
        let serve =
          List.find
            (fun (th : Mach.Ktypes.thread) -> th.tname = "fs-serve-1")
            (F.File_server.task fs).Mach.Ktypes.threads
        in
        while serve.Mach.Ktypes.state <> Mach.Ktypes.Th_blocked "disk-read" do
          ignore (Mach.Clock.sleep_for sys ~cycles:10_000 : Mach.Ktypes.kern_return)
        done;
        Mach.Sched.terminate sys serve;
        Mach.Port.destroy sys (F.File_server.port fs);
        ignore (F.File_server.restart fs : Mach.Ktypes.port);
        F.File_server.Client.open_ fs sem ~path:"/os2/f" ~create:true ())
  in
  ignore (ok "create after restart" created : F.File_server.Client.handle)

let suite =
  [
    Alcotest.test_case "block cache" `Quick test_block_cache;
    Alcotest.test_case "flush gathers each dirty run" `Quick
      test_flush_clusters_runs;
    Alcotest.test_case "power cut inside a flushed cluster" `Quick
      test_flush_power_cut_mid_cluster;
    Alcotest.test_case "flush_wait outside a thread waits for the disk"
      `Quick test_flush_wait_outside_thread;
    Alcotest.test_case "map file (external pager)" `Quick test_map_file;
    Alcotest.test_case "pfs matrix: fat" `Quick test_matrix_fat;
    Alcotest.test_case "pfs matrix: hpfs" `Quick test_matrix_hpfs;
    Alcotest.test_case "pfs matrix: jfs" `Quick test_matrix_jfs;
    Alcotest.test_case "fat name rules" `Quick test_fat_names;
    Alcotest.test_case "fat create/read/write" `Quick test_fat_create_read_write;
    Alcotest.test_case "fat case folding" `Quick test_fat_case_folding;
    Alcotest.test_case "fat rejects long names" `Quick test_fat_long_name_rejected;
    Alcotest.test_case "fat subdirs+remove" `Quick test_fat_subdirs_and_remove;
    Alcotest.test_case "fat cluster growth" `Quick test_fat_grows_across_clusters;
    Alcotest.test_case "fat persistence" `Quick test_fat_persistence;
    Alcotest.test_case "hpfs long names" `Quick test_hpfs_long_names_case_insensitive;
    Alcotest.test_case "jfs case sensitivity" `Quick test_jfs_case_sensitive;
    Alcotest.test_case "jfs journal writes" `Quick test_jfs_journal_writes;
    Alcotest.test_case "jfs mount releases its cache" `Quick
      test_jfs_mount_releases_cache;
    Alcotest.test_case "extfs rename+truncate" `Quick test_extfs_rename_and_truncate;
    Alcotest.test_case "extfs sparse files" `Quick test_extfs_sparse_and_holes;
    Alcotest.test_case "vfs union semantics" `Quick test_vfs_union_semantics;
    Alcotest.test_case "vfs paths" `Quick test_vfs_paths;
    Alcotest.test_case "file server client" `Quick test_file_server_client;
    Alcotest.test_case "file server mapped read" `Quick test_file_server_mapped_read;
    Alcotest.test_case "file server zero-copy read/write" `Quick
      test_file_server_zero_copy;
    Alcotest.test_case "stale handle" `Quick test_stale_handle;
    Alcotest.test_case "file server over fat" `Quick test_file_server_fat;
    Alcotest.test_case "two serve threads create in one directory" `Quick
      test_concurrent_creates;
    Alcotest.test_case "restart frees a dead holder's mount lock" `Quick
      test_restart_frees_mount_lock;
  ]

let _ = with_fs
