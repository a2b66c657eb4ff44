(* The VFS path-walk layer: the synthetic root, the uniform E_not_dir
   walk check, compromise counting, vnode identity and lifecycle, and
   the name cache — correctness under invalidation, equivalence with
   the cache off, and the Machcheck vnode/name-cache checker firing on
   seeded misuse and staying silent on clean runs. *)

open Fileserver.Fs_types
module F = Fileserver
module Vfs = F.Vfs
module Vnode = F.Vnode

let err = Test_util.fs_error
let ok = Test_util.check_fs_ok
let sem = Vfs.unix_semantics

(* Boot a kernel, mkfs+mount [formats] at the given points into one VFS,
   run [body] in a simulated thread. *)
let with_vfs ?(namecache = true) formats body =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  let vfs = Vfs.create ~kernel:k () in
  Vfs.set_namecache vfs namecache;
  let cache = F.Block_cache.create k disk () in
  List.iteri
    (fun i (point, mk, mount) ->
      mk disk ~start:(i * 4096);
      match mount cache ~start:(i * 4096) with
      | Ok pfs -> (
          match Vfs.mount vfs ~at:point pfs with
          | Ok () -> ()
          | Error e -> Alcotest.fail e)
      | Error e -> Alcotest.fail (fs_error_to_string e))
    formats;
  Test_util.run_in_thread k (fun () -> body vfs)

let fat =
  ( "/fat",
    (fun d ~start -> F.Fat.mkfs d ~start ()),
    fun c ~start -> F.Fat.mount c ~start () )

let hpfs =
  ( "/hpfs",
    (fun d ~start -> F.Hpfs.mkfs d ~start ()),
    fun c ~start -> F.Hpfs.mount c ~start () )

let jfs =
  ( "/jfs",
    (fun d ~start -> F.Jfs.mkfs d ~start ()),
    fun c ~start -> F.Jfs.mount c ~start () )

let ext =
  let cfg =
    {
      F.Extfs.cfg_format = "ext";
      cfg_max_name = 60;
      cfg_case_sensitive = true;
      cfg_journalled = false;
    }
  in
  ( "/ext",
    (fun d ~start -> F.Extfs.mkfs d cfg ~start ()),
    fun c ~start -> F.Extfs.mount c cfg ~start () )

(* --- bug 1: the root path resolves ---------------------------------------- *)

let test_root_path () =
  with_vfs [ hpfs; fat ] (fun vfs ->
      (match Vfs.resolve vfs sem ~path:"/" with
      | Ok Vfs.Root -> ()
      | Ok (Vfs.File _) -> Alcotest.fail "/ resolved to a file"
      | Error e -> Alcotest.failf "/ failed: %s" (fs_error_to_string e));
      let st = ok "stat /" (Vfs.stat vfs sem ~path:"/") in
      Alcotest.(check bool) "/ is a directory" true st.st_is_dir;
      Alcotest.(check (list string))
        "readdir / lists the mount points" [ "fat"; "hpfs" ]
        (ok "readdir /" (Vfs.readdir vfs sem ~path:"/"));
      (* the empty path is the same object *)
      Alcotest.(check bool) "stat \"\" is root" true
        (ok "stat \"\"" (Vfs.stat vfs sem ~path:"")).st_is_dir;
      (* the root is not a file: it cannot be created over or removed *)
      Alcotest.(check (result unit err))
        "unlink / rejected" (Error E_bad_name)
        (Vfs.unlink vfs sem ~path:"/"))

(* --- bug 3: walking through a non-directory ------------------------------- *)

let test_walk_through_file () =
  with_vfs [ fat; hpfs; jfs; ext ] (fun vfs ->
      List.iter
        (fun root ->
          let file = root ^ "/plain.txt" in
          ignore (ok "create" (Vfs.create_file vfs sem ~path:file));
          (* resolving *through* the file is E_not_dir on every format *)
          Alcotest.(check (result unit err))
            (file ^ "/x stats E_not_dir")
            (Error E_not_dir)
            (Result.map (fun _ -> ()) (Vfs.stat vfs sem ~path:(file ^ "/x")));
          Alcotest.(check (result unit err))
            (file ^ "/x/y stats E_not_dir")
            (Error E_not_dir)
            (Result.map
               (fun _ -> ())
               (Vfs.stat vfs sem ~path:(file ^ "/x/y")));
          (* ... and so is creating under it *)
          Alcotest.(check (result unit err))
            (file ^ "/sub mkdir E_not_dir")
            (Error E_not_dir)
            (Result.map
               (fun _ -> ())
               (Vfs.mkdir vfs sem ~path:(file ^ "/sub/d")));
          (* the file itself still resolves *)
          ignore (ok "file still stats" (Vfs.stat vfs sem ~path:file)))
        [ "/fat"; "/hpfs"; "/jfs"; "/ext" ])

(* --- bug 2: compromise counting ------------------------------------------- *)

let test_compromise_counting () =
  with_vfs [ hpfs ] (fun vfs ->
      (* a name with nothing to fold is no compromise, however often
         it is walked by a case-sensitive client *)
      ignore (ok "create" (Vfs.create_file vfs sem ~path:"/hpfs/plain.txt"));
      for _ = 1 to 5 do
        ignore (ok "stat" (Vfs.stat vfs sem ~path:"/hpfs/plain.txt"))
      done;
      Alcotest.(check int) "no letters folded: no compromise" 0
        (Vfs.compromises vfs);
      (* a folding name counts once per distinct name, not once per walk *)
      ignore (ok "create" (Vfs.create_file vfs sem ~path:"/hpfs/Mixed.txt"));
      for _ = 1 to 5 do
        ignore (ok "stat" (Vfs.stat vfs sem ~path:"/hpfs/Mixed.txt"))
      done;
      Alcotest.(check int) "one distinct folded name" 1 (Vfs.compromises vfs);
      ignore (ok "create" (Vfs.create_file vfs sem ~path:"/hpfs/Other.txt"));
      Alcotest.(check int) "two distinct folded names" 2 (Vfs.compromises vfs);
      (* a case-folding client never compromises *)
      ignore
        (ok "os2 stat"
           (Vfs.stat vfs Vfs.os2_semantics ~path:"/hpfs/MIXED.TXT"));
      Alcotest.(check int) "os2 client adds none" 2 (Vfs.compromises vfs);
      (* a case-sensitive format never compromises *)
      with_vfs [ jfs ] (fun vfs2 ->
          ignore
            (ok "create" (Vfs.create_file vfs2 sem ~path:"/jfs/Mixed.txt"));
          ignore (ok "stat" (Vfs.stat vfs2 sem ~path:"/jfs/Mixed.txt"));
          Alcotest.(check int) "case-sensitive format: none" 0
            (Vfs.compromises vfs2)))

(* --- vnode identity -------------------------------------------------------- *)

let file_vnode vfs path =
  match Vfs.resolve vfs sem ~path with
  | Ok (Vfs.File v) -> v
  | Ok Vfs.Root -> Alcotest.fail (path ^ ": resolved to root")
  | Error e -> Alcotest.failf "%s: %s" path (fs_error_to_string e)

let test_vnode_identity () =
  with_vfs [ hpfs ] (fun vfs ->
      ignore (ok "create" (Vfs.create_file vfs sem ~path:"/hpfs/a.dat"));
      let v1 = file_vnode vfs "/hpfs/a.dat" in
      let v2 = file_vnode vfs "/hpfs/a.dat" in
      Alcotest.(check bool) "same path, same vnode" true (v1 == v2);
      ok "unlink" (Vfs.unlink vfs sem ~path:"/hpfs/a.dat");
      Alcotest.(check bool) "unlink reclaims" true (Vnode.reclaimed v1);
      Alcotest.(check (result unit err))
        "stat through reclaimed vnode" (Error E_bad_handle)
        (Result.map (fun _ -> ()) (Vnode.stat v1));
      (* id reuse after recreation yields a fresh, live vnode *)
      ignore (ok "recreate" (Vfs.create_file vfs sem ~path:"/hpfs/a.dat"));
      let v3 = file_vnode vfs "/hpfs/a.dat" in
      Alcotest.(check bool) "fresh vnode" true (v3 != v1);
      Alcotest.(check bool) "and live" false (Vnode.reclaimed v3))

(* --- name-cache invalidation ----------------------------------------------- *)

let neg_hits vfs = (Vfs.cache_stats vfs).F.Namecache.cs_neg_hits
let pos_hits vfs = (Vfs.cache_stats vfs).F.Namecache.cs_hits

let test_cache_hit_then_unlink () =
  with_vfs [ hpfs ] (fun vfs ->
      ignore (ok "create" (Vfs.create_file vfs sem ~path:"/hpfs/x.dat"));
      ignore (ok "stat" (Vfs.stat vfs sem ~path:"/hpfs/x.dat"));
      let h0 = pos_hits vfs in
      ignore (ok "stat again" (Vfs.stat vfs sem ~path:"/hpfs/x.dat"));
      Alcotest.(check bool) "second walk hits the cache" true
        (pos_hits vfs > h0);
      ok "unlink" (Vfs.unlink vfs sem ~path:"/hpfs/x.dat");
      Alcotest.(check (result unit err))
        "after unlink: not found" (Error E_not_found)
        (Result.map (fun _ -> ()) (Vfs.stat vfs sem ~path:"/hpfs/x.dat")))

let test_cache_rename_moves_entry () =
  with_vfs [ hpfs ] (fun vfs ->
      ignore (ok "create" (Vfs.create_file vfs sem ~path:"/hpfs/old.dat"));
      ignore (ok "stat" (Vfs.stat vfs sem ~path:"/hpfs/old.dat"));
      ok "rename" (Vfs.rename vfs sem ~src:"/hpfs/old.dat" ~dst:"/hpfs/new.dat");
      Alcotest.(check (result unit err))
        "old name gone" (Error E_not_found)
        (Result.map (fun _ -> ()) (Vfs.stat vfs sem ~path:"/hpfs/old.dat"));
      ignore (ok "new name resolves" (Vfs.stat vfs sem ~path:"/hpfs/new.dat")))

let test_cache_negative_cleared_by_create () =
  with_vfs [ hpfs ] (fun vfs ->
      Alcotest.(check (result unit err))
        "missing" (Error E_not_found)
        (Result.map (fun _ -> ()) (Vfs.stat vfs sem ~path:"/hpfs/ghost.dat"));
      let n0 = neg_hits vfs in
      Alcotest.(check (result unit err))
        "still missing" (Error E_not_found)
        (Result.map (fun _ -> ()) (Vfs.stat vfs sem ~path:"/hpfs/ghost.dat"));
      Alcotest.(check bool) "second miss served negatively" true
        (neg_hits vfs > n0);
      ignore (ok "create" (Vfs.create_file vfs sem ~path:"/hpfs/ghost.dat"));
      ignore (ok "created name resolves" (Vfs.stat vfs sem ~path:"/hpfs/ghost.dat")))

(* --- qcheck: cache-on and cache-off resolve identically --------------------- *)

(* A random script over a fixed name pool, run twice on identical fresh
   volumes — once with the name cache, once without.  Every operation's
   (normalized) outcome must agree.  Mount, create, unlink, rename and
   mkdir interleave so the scripts hit the invalidation paths. *)

type script_op =
  | S_create of string
  | S_mkdir of string
  | S_unlink of string
  | S_rename of string * string
  | S_stat of string
  | S_readdir of string
  | S_mount  (* attach a second volume mid-script *)

let script_paths =
  [ "/a/x"; "/a/y"; "/a/sub"; "/a/sub/x"; "/b/x"; "/nowhere/x" ]

let op_gen =
  QCheck.Gen.(
    let path = oneofl script_paths in
    frequency
      [
        (3, map (fun p -> S_create p) path);
        (2, map (fun p -> S_mkdir p) path);
        (2, map (fun p -> S_unlink p) path);
        (2, map2 (fun a b -> S_rename (a, b)) path path);
        (4, map (fun p -> S_stat p) path);
        (2, map (fun p -> S_readdir p) path);
        (1, return S_mount);
      ])

let op_print = function
  | S_create p -> "create " ^ p
  | S_mkdir p -> "mkdir " ^ p
  | S_unlink p -> "unlink " ^ p
  | S_rename (a, b) -> Printf.sprintf "rename %s %s" a b
  | S_stat p -> "stat " ^ p
  | S_readdir p -> "readdir " ^ p
  | S_mount -> "mount /b"

let run_script ~namecache ops =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  let vfs = Vfs.create ~kernel:k () in
  Vfs.set_namecache vfs namecache;
  let cache = F.Block_cache.create k disk () in
  F.Hpfs.mkfs disk ();
  F.Fat.mkfs disk ~start:4096 ();
  (match F.Hpfs.mount cache () with
  | Ok pfs -> (
      match Vfs.mount vfs ~at:"/a" pfs with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail (fs_error_to_string e));
  let spare =
    match F.Fat.mount cache ~start:4096 () with
    | Ok pfs -> pfs
    | Error e -> Alcotest.fail (fs_error_to_string e)
  in
  Test_util.run_in_thread k (fun () ->
      List.map
        (fun op ->
          let show label = function
            | Ok s -> label ^ ":ok:" ^ s
            | Error e -> label ^ ":" ^ fs_error_to_string e
          in
          match op with
          | S_create p ->
              show "create"
                (Result.map (fun (_ : file_id) -> "") (Vfs.create_file vfs sem ~path:p))
          | S_mkdir p ->
              show "mkdir"
                (Result.map (fun (_ : file_id) -> "") (Vfs.mkdir vfs sem ~path:p))
          | S_unlink p ->
              show "unlink" (Result.map (fun () -> "") (Vfs.unlink vfs sem ~path:p))
          | S_rename (a, b) ->
              show "rename"
                (Result.map (fun () -> "") (Vfs.rename vfs sem ~src:a ~dst:b))
          | S_stat p ->
              show "stat"
                (Result.map
                   (fun st ->
                     Printf.sprintf "%b:%d" st.st_is_dir st.st_size)
                   (Vfs.stat vfs sem ~path:p))
          | S_readdir p ->
              show "readdir"
                (Result.map
                   (fun names -> String.concat "," (List.sort compare names))
                   (Vfs.readdir vfs sem ~path:p))
          | S_mount ->
              show "mount"
                (match Vfs.mount vfs ~at:"/b" spare with
                | Ok () -> Ok ""
                | Error e -> Ok ("rejected:" ^ e)))
        ops)

let cache_equivalence =
  QCheck.Test.make ~name:"cache-on and cache-off scripts agree" ~count:30
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map op_print ops))
       QCheck.Gen.(list_size (5 -- 40) op_gen))
    (fun ops ->
      run_script ~namecache:true ops = run_script ~namecache:false ops)

(* --- the vnode checker ------------------------------------------------------ *)

let test_checker_use_after_reclaim () =
  let chk = Check.create () in
  Check.install chk;
  Fun.protect ~finally:Check.uninstall @@ fun () ->
  with_vfs [ hpfs ] (fun vfs ->
      ignore (ok "create" (Vfs.create_file vfs sem ~path:"/hpfs/v.dat"));
      let v = file_vnode vfs "/hpfs/v.dat" in
      ok "unlink" (Vfs.unlink vfs sem ~path:"/hpfs/v.dat");
      (* seeded misuse: dispatch through the dead vnode *)
      Alcotest.(check (result unit err))
        "op fails" (Error E_bad_handle)
        (Result.map (fun _ -> ()) (Vnode.stat v)));
  let rep = Check.report chk in
  Alcotest.(check int) "one use-after-reclaim" 1
    (Check.count rep "vnode_use_after_reclaim");
  Alcotest.(check bool) "finding names the vnode checker" true
    (List.exists (fun f -> f.Check.f_checker = "vnode") rep.Check.findings)

let test_checker_leaked_refs () =
  let chk = Check.create () in
  Check.install chk;
  Fun.protect ~finally:Check.uninstall @@ fun () ->
  with_vfs [ hpfs ] (fun vfs ->
      ignore (ok "create" (Vfs.create_file vfs sem ~path:"/hpfs/held.dat"));
      let v = file_vnode vfs "/hpfs/held.dat" in
      Vnode.ref_ v;
      (* crash recovery sweeps: the reference was never dropped *)
      ignore (Vfs.recover vfs : recover_report));
  let rep = Check.report chk in
  Alcotest.(check int) "one leaked reference" 1 (Check.count rep "vnode_leaks")

let test_checker_clean_lifecycle () =
  let chk = Check.create () in
  Check.install chk;
  Fun.protect ~finally:Check.uninstall @@ fun () ->
  with_vfs [ hpfs ] (fun vfs ->
      ignore (ok "create" (Vfs.create_file vfs sem ~path:"/hpfs/c.dat"));
      let v = file_vnode vfs "/hpfs/c.dat" in
      Vnode.ref_ v;
      ignore (ok "stat" (Vfs.stat vfs sem ~path:"/hpfs/c.dat"));
      Vnode.unref v;
      ok "unlink" (Vfs.unlink vfs sem ~path:"/hpfs/c.dat");
      ignore (Vfs.recover vfs : recover_report);
      (* post-recovery, the volume works and refills the cache *)
      ignore (ok "recreate" (Vfs.create_file vfs sem ~path:"/hpfs/c.dat"));
      ignore (ok "stat" (Vfs.stat vfs sem ~path:"/hpfs/c.dat")));
  let rep = Check.report chk in
  Alcotest.(check int) "no findings" 0 (Check.total_findings rep)

(* create -> stat -> unlink -> create reuses the file id.  The name the
   second create primes must lead to a live vnode: the next walk is a
   counted cache hit, not a stale entry healed by a directory rescan. *)
let test_checker_create_primes_live_entry () =
  let chk = Check.create () in
  Check.install chk;
  let reused = ref false and delta = ref None in
  Fun.protect ~finally:Check.uninstall @@ fun () ->
  with_vfs [ hpfs ] (fun vfs ->
      let path = "/hpfs/r.dat" in
      let first = ok "create" (Vfs.create_file vfs sem ~path) in
      ignore (ok "stat" (Vfs.stat vfs sem ~path));
      ok "unlink" (Vfs.unlink vfs sem ~path);
      reused := ok "recreate" (Vfs.create_file vfs sem ~path) = first;
      let s0 = Vfs.cache_stats vfs in
      ignore (ok "stat again" (Vfs.stat vfs sem ~path));
      let s1 = Vfs.cache_stats vfs in
      delta :=
        Some
          ( s1.F.Namecache.cs_hits - s0.F.Namecache.cs_hits,
            s1.F.Namecache.cs_invalidations - s0.F.Namecache.cs_invalidations ));
  Alcotest.(check bool) "the file id was reused" true !reused;
  Alcotest.(check (option (pair int int)))
    "one hit, nothing healed" (Some (1, 0)) !delta;
  Alcotest.(check int) "no stale entry" 0
    (Check.count (Check.report chk) "ncache_stale")

(* --- the vfs-walk workload under the checker -------------------------------- *)

let test_vfs_walk_workload () =
  let r, check =
    Check.with_checker true (fun () ->
        Workloads.Vfs_walk.run ~depth:6 ~files:8 ~repeats:3 ~cpus:2 ())
  in
  let open Workloads.Vfs_walk in
  Alcotest.(check bool)
    (Printf.sprintf "hot hit rate %.2f >= 0.9" r.r_hot_hit_rate)
    true (r.r_hot_hit_rate >= 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "deep speedup %.2f >= 2" r.r_deep_speedup)
    true (r.r_deep_speedup >= 2.0);
  Alcotest.(check int) "all concurrent lookups ok" r.r_concurrent_expected
    r.r_concurrent_ok;
  match check with
  | Some rep -> Alcotest.(check int) "clean" 0 (Check.total_findings rep)
  | None -> Alcotest.fail "no checker report"

let suite =
  [
    Alcotest.test_case "root path resolves, readdir lists mounts" `Quick
      test_root_path;
    Alcotest.test_case "walk through a file is E_not_dir on all formats"
      `Quick test_walk_through_file;
    Alcotest.test_case "compromises count distinct folded names once" `Quick
      test_compromise_counting;
    Alcotest.test_case "vnodes are interned per (mount, id)" `Quick
      test_vnode_identity;
    Alcotest.test_case "cache: hit, unlink, miss" `Quick
      test_cache_hit_then_unlink;
    Alcotest.test_case "cache: rename moves the entry" `Quick
      test_cache_rename_moves_entry;
    Alcotest.test_case "cache: create clears a negative entry" `Quick
      test_cache_negative_cleared_by_create;
    QCheck_alcotest.to_alcotest cache_equivalence;
    Alcotest.test_case "checker: seeded use-after-reclaim fires" `Quick
      test_checker_use_after_reclaim;
    Alcotest.test_case "checker: leaked ref at recovery fires" `Quick
      test_checker_leaked_refs;
    Alcotest.test_case "checker: clean lifecycle stays silent" `Quick
      test_checker_clean_lifecycle;
    Alcotest.test_case "checker: a re-created name primes a live entry"
      `Quick test_checker_create_primes_live_entry;
    Alcotest.test_case "vfs-walk workload meets acceptance" `Slow
      test_vfs_walk_workload;
  ]
