(* The file systems' allocators: next-fit hints and whole-block scans
   must choose exactly what the front-to-back, one-probe-per-bit scans
   chose, so every allocated block, inode and cluster and every media
   image stays as it was.  The old scans live on here as the oracle,
   run over the decoded media image before each operation. *)

open Fileserver.Fs_types
module F = Fileserver

let ok = Test_util.check_fs_ok

(* --- the reference: the allocators before next-fit hints --------------- *)

(* Every probe reads one bitmap bit, inode or FAT entry, and every scan
   starts at the front: a block scan at [from], wrapping to 0. *)
module Ref_alloc = struct
  let find_free used ~from =
    let rec scan i =
      if i >= Array.length used then None
      else if not used.(i) then Some i
      else scan (i + 1)
    in
    match scan from with
    | Some i -> Some i
    | None -> if from > 0 then scan 0 else None

  (* Extfs's [grow_one]: one more block for a file holding [extents],
     extending the last extent when the block is adjacent; [None] when
     the volume is full or the six extents are used up *)
  let grow_one used extents =
    let from = match List.rev extents with (s, l) :: _ -> s + l | [] -> 0 in
    match find_free used ~from with
    | None -> None
    | Some blk ->
        let rec extend = function
          | [] -> Some [ (blk, 1) ]
          | [ (s, l) ] when s + l = blk -> Some [ (s, l + 1) ]
          | [ last ] ->
              if List.length extents >= 6 then None else Some [ last; (blk, 1) ]
          | e :: rest -> Option.map (fun r -> e :: r) (extend rest)
        in
        let r = extend extents in
        if r <> None then used.(blk) <- true;
        r

  let alloc_inode used =
    let rec scan ino =
      if ino >= Array.length used then None
      else if not used.(ino) then Some ino
      else scan (ino + 1)
    in
    scan 0

  (* the [k] lowest free clusters, in the order FAT takes them *)
  let alloc_clusters fat k =
    let rec scan c k acc =
      if k = 0 || c >= Array.length fat then List.rev acc
      else if fat.(c) = 0 then scan (c + 1) (k - 1) (c :: acc)
      else scan (c + 1) k acc
    in
    scan 2 k []
end

(* --- decoding the media -------------------------------------------------- *)

let block_size = 512
let get16 b off = Bytes.get_uint16_le b off
let get32 b off = get16 b off lor (get16 b (off + 2) lsl 16)

type ext_inode = { used : bool; size : int; extents : (int * int) list }
type ext_image = { bitmap : bool array; itab : ext_inode array }

(* Extfs's layout (see extfs.ml): superblock, bitmap, inode table,
   journal ring when journalled, data. *)
let ext_geometry disk ~journalled =
  let sb = Machine.Disk.read_image disk ~block:0 ~count:1 in
  let blocks = get32 sb 4 and inodes = get32 sb 8 in
  let bitmap_blocks = (blocks + (block_size * 8) - 1) / (block_size * 8) in
  let itable_blocks = ((inodes * 64) + block_size - 1) / block_size in
  let journal = if journalled then max 64 (blocks / 32) else 0 in
  let data_start = 1 + bitmap_blocks + itable_blocks + journal in
  (inodes, bitmap_blocks, itable_blocks, data_start, blocks - data_start)

let ext_decode disk ~journalled =
  let inodes, bitmap_blocks, itable_blocks, _, data_blocks =
    ext_geometry disk ~journalled
  in
  let bm = Machine.Disk.read_image disk ~block:1 ~count:bitmap_blocks in
  let it =
    Machine.Disk.read_image disk ~block:(1 + bitmap_blocks) ~count:itable_blocks
  in
  let bitmap =
    Array.init data_blocks (fun i ->
        Char.code (Bytes.get bm (i / 8)) land (1 lsl (i mod 8)) <> 0)
  in
  let itab =
    Array.init inodes (fun ino ->
        let off = ino * 64 in
        let extents =
          List.filter_map
            (fun e ->
              let s = get32 it (off + 8 + (e * 8))
              and l = get32 it (off + 12 + (e * 8)) in
              if l > 0 then Some (s, l) else None)
            (List.init 6 Fun.id)
        in
        { used = get32 it off land 1 <> 0; size = get32 it (off + 4); extents })
  in
  { bitmap; itab }

let held extents = List.fold_left (fun acc (_, l) -> acc + l) 0 extents

(* Hold one operation's allocations to the reference: a fresh inode is
   the lowest free one, and a file that grew by [k] blocks got the [k]
   blocks [Ref_alloc.grow_one] picks, after the operation's frees. *)
let check_ext ~what pre post ~created =
  let n = Array.length pre.itab in
  let fresh =
    List.filter (fun i -> post.itab.(i).used && not pre.itab.(i).used)
      (List.init n Fun.id)
  in
  let expect_ino =
    Ref_alloc.alloc_inode (Array.map (fun i -> i.used) pre.itab)
  in
  (match fresh with
  | [] -> ()
  | [ ino ] ->
      Alcotest.(check (option int)) (what ^ ": inode") expect_ino (Some ino)
  | _ -> Alcotest.fail (what ^ ": two inodes in one operation"));
  Option.iter
    (fun ino ->
      Alcotest.(check (option int)) (what ^ ": created") expect_ino (Some ino))
    created;
  let used = Array.copy pre.bitmap in
  Array.iteri
    (fun ino (i : ext_inode) ->
      if i.used && not post.itab.(ino).used then
        List.iter
          (fun (s, l) ->
            for b = s to s + l - 1 do
              used.(b) <- false
            done)
          i.extents)
    pre.itab;
  let grown = ref 0 in
  let expected =
    Array.mapi
      (fun ino (p : ext_inode) ->
        let q = pre.itab.(ino) in
        let before = if q.used then q.extents else [] in
        if not p.used then []
        else begin
          let k = held p.extents - held before in
          if k > 0 then incr grown;
          let rec grow extents k =
            if k <= 0 then extents
            else
              match Ref_alloc.grow_one used extents with
              | Some e -> grow e (k - 1)
              | None ->
                  Alcotest.failf "%s: inode %d grew past the reference" what
                    ino
          in
          grow before k
        end)
      post.itab
  in
  if !grown > 1 then
    Alcotest.fail (what ^ ": two files grew in one operation");
  Alcotest.(check (array (list (pair int int))))
    (what ^ ": extents") expected
    (Array.map (fun (p : ext_inode) -> p.extents) post.itab);
  Alcotest.(check (array bool)) (what ^ ": bitmap") used post.bitmap

(* FAT's layout (see fat.ml): boot sector, FAT, fixed root, clusters. *)
let fat_decode disk =
  let boot = Machine.Disk.read_image disk ~block:0 ~count:1 in
  let total = get32 boot 4 and fat_blocks = get16 boot 8 in
  let clusters = total - (1 + fat_blocks + get16 boot 10) in
  let fat = Machine.Disk.read_image disk ~block:1 ~count:fat_blocks in
  Array.init (clusters + 2) (fun c ->
      if c < 2 then 0xffff else get16 fat (c * 2))

let fat_chain fat first =
  let rec walk c acc n =
    if c = 0 || c = 0xffff || n > Array.length fat then List.rev acc
    else walk fat.(c) (c :: acc) (n + 1)
  in
  walk first [] 0

(* The clusters an operation took are the lowest free ones, in order;
   a create's own cluster is the last taken, and a file that grew got
   them appended to its chain. *)
let check_fat ~what pre post ~created ~file =
  let avail = Array.copy pre in
  Array.iteri (fun c v -> if v <> 0 && post.(c) = 0 then avail.(c) <- 0) pre;
  let fresh =
    List.filter (fun c -> pre.(c) = 0 && post.(c) <> 0)
      (List.init (Array.length pre) Fun.id)
  in
  let expected = Ref_alloc.alloc_clusters avail (List.length fresh) in
  Alcotest.(check (list int)) (what ^ ": clusters") expected fresh;
  Option.iter
    (fun c ->
      Alcotest.(check (option int)) (what ^ ": created")
        (List.nth_opt (List.rev fresh) 0) (Some c))
    created;
  Option.iter
    (fun first ->
      if fresh <> [] then
        Alcotest.(check (list int)) (what ^ ": chain")
          (fat_chain pre first @ fresh) (fat_chain post first))
    file

(* --- the differential run ------------------------------------------------ *)

type format = Hpfs | Jfs | Fat

let format_name = function Hpfs -> "hpfs" | Jfs -> "jfs" | Fat -> "fat"

(* Every scan crosses metadata blocks: two bitmap blocks and eight
   inode-table blocks on Extfs, four FAT blocks on FAT.  FAT's volume is
   the smaller because its writes re-walk the file's chain for every
   cluster they add, which makes filling 8,192 blocks take a minute. *)
let volume_blocks = function Hpfs | Jfs -> 8192 | Fat -> 1024

let mkfs fmt disk =
  let blocks = volume_blocks fmt in
  match fmt with
  | Hpfs -> F.Extfs.mkfs disk F.Hpfs.config ~blocks ~inodes:64 ()
  | Jfs -> F.Extfs.mkfs disk F.Jfs.config ~blocks ~inodes:64 ()
  | Fat -> F.Fat.mkfs disk ~blocks ()

let mount fmt cache =
  match fmt with
  | Hpfs -> F.Hpfs.mount cache ()
  | Jfs -> F.Jfs.mount cache ()
  | Fat -> F.Fat.mount cache ()

type decoded = Ext of ext_image | Fat_image of int array

(* A live name the run knows of. *)
type entry = { e_dir : int; e_name : string; e_id : int; e_is_dir : bool }

(* Seeded random creates, writes, unlinks, writes that overflow the
   volume (a rolled-back transaction on JFS, a partial allocation
   elsewhere) and recoveries.  After each operation the volume is
   synced and its media decoded; the operation's allocations
   are checked against the reference, and the media of every sync is
   folded into one digest, which the run returns. *)
let differential fmt ~seed ~steps =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  mkfs fmt disk;
  let cache = F.Block_cache.create k disk () in
  Test_util.run_in_thread k (fun () ->
      let pfs = ok "mount" (mount fmt cache) in
      let rng = Random.State.make [| seed |] in
      let meta_blocks =
        match fmt with
        | Hpfs | Jfs ->
            let _, _, _, data_start, _ =
              ext_geometry disk ~journalled:(fmt = Jfs)
            in
            data_start
        | Fat ->
            let boot = Machine.Disk.read_image disk ~block:0 ~count:1 in
            1 + get16 boot 8 + get16 boot 10
      in
      let digests = Buffer.create 4096 in
      let image () =
        pfs.pfs_sync ();
        F.Block_cache.barrier_wait cache;
        Buffer.add_string digests
          (Digest.bytes
             (Machine.Disk.read_image disk ~block:0 ~count:meta_blocks));
        match fmt with
        | Hpfs | Jfs -> Ext (ext_decode disk ~journalled:(fmt = Jfs))
        | Fat -> Fat_image (fat_decode disk)
      in
      let live = ref [] in
      let pick pred =
        match List.filter pred !live with
        | [] -> None
        | l -> Some (List.nth l (Random.State.int rng (List.length l)))
      in
      let dirs () =
        pfs.pfs_root
        :: List.filter_map
             (fun e -> if e.e_is_dir then Some e.e_id else None)
             !live
      in
      let size id = (ok "stat" (pfs.pfs_stat id)).st_size in
      let step pre n =
        let what =
          Printf.sprintf "%s seed %d step %d" (format_name fmt) seed n
        in
        let created = ref None and file = ref None in
        let r = Random.State.int rng 100 in
        let label =
          if r < 35 then begin
            let ds = dirs () in
            let dir = List.nth ds (Random.State.int rng (List.length ds)) in
            let is_dir = Random.State.int rng 10 = 0 in
            let name =
              Printf.sprintf (if is_dir then "D%03d" else "F%03d.DAT")
                (Random.State.int rng 1000)
            in
            (match pfs.pfs_create ~dir name ~is_dir with
            | Ok id ->
                created := Some id;
                live :=
                  { e_dir = dir; e_name = name; e_id = id; e_is_dir = is_dir }
                  :: !live
            | Error _ -> ());
            "create"
          end
          else if r < 70 then begin
            (match pick (fun e -> not e.e_is_dir) with
            | None -> ()
            | Some e ->
                file := Some e.e_id;
                let off = Random.State.int rng (size e.e_id + 1) in
                let len = 1 + Random.State.int rng 3000 in
                ignore
                  (pfs.pfs_write e.e_id ~off (Bytes.make len 'w')
                    : (int, _) result));
            "write"
          end
          else if r < 90 then begin
            (match pick (fun _ -> true) with
            | None -> ()
            | Some e -> (
                match pfs.pfs_remove ~dir:e.e_dir e.e_name with
                | Ok () -> live := List.filter (fun x -> x != e) !live
                | Error _ -> ()));
            "unlink"
          end
          else if r < 96 then begin
            (match pick (fun e -> not e.e_is_dir) with
            | None -> ()
            | Some e ->
                file := Some e.e_id;
                let len = (pfs.pfs_free_blocks () + 8) * block_size in
                ignore
                  (pfs.pfs_write e.e_id ~off:(size e.e_id) (Bytes.make len 'o')
                    : (int, _) result));
            "overflow"
          end
          else begin
            ignore (pfs.pfs_recover () : recover_report);
            "recover"
          end
        in
        let what = what ^ " " ^ label in
        let post = image () in
        (match (pre, post) with
        | Ext pre, Ext post -> check_ext ~what pre post ~created:!created
        | Fat_image pre, Fat_image post ->
            check_fat ~what pre post ~created:!created ~file:!file
        | _ -> assert false);
        post
      in
      let rec run pre n = if n <= steps then run (step pre n) (n + 1) in
      run (image ()) 1;
      (* the whole volume once at the end: data blocks too *)
      Buffer.add_string digests
        (Digest.bytes
           (Machine.Disk.read_image disk ~block:0 ~count:(volume_blocks fmt)));
      Digest.to_hex (Digest.string (Buffer.contents digests)))

(* The media digests of each run, recorded with the one-probe-per-bit
   scans: the hints change how a choice is found, never the choice, so
   every synced image is the same. *)
let golden =
  [
    (Hpfs, 1, "4ee63a971ce7c176c9256732c394ca53");
    (Hpfs, 2, "aecb2d802bf986a9a4858d79bbb98646");
    (Jfs, 1, "88cedaa79afd8fb680ff0892e13a471d");
    (Jfs, 2, "5be22c832b5748dafa67311786377987");
    (Fat, 1, "dc7422652a70847e9a64fd901578cd2d");
    (Fat, 2, "4cdf19fd067f7a3d82dade327f43445b");
  ]

let test_differential () =
  List.iter
    (fun (fmt, seed, digest) ->
      let got = differential fmt ~seed ~steps:120 in
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d media" (format_name fmt) seed)
        digest got)
    golden

(* --- what one create costs ---------------------------------------------- *)

let accesses cache = F.Block_cache.hits cache + F.Block_cache.misses cache

(* A create on a volume of about 1,000 live files, ten directories of
   100 one-block files: scanning from the front read one inode-table
   block per live inode and one bitmap block per used bit, over 1,000
   block-cache accesses; from the hints it is a handful. *)
let test_create_accesses () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Extfs.mkfs disk F.Hpfs.config ~inodes:1536 ();
  let cache = F.Block_cache.create k disk () in
  Test_util.run_in_thread k (fun () ->
      let pfs = ok "mount" (F.Hpfs.mount cache ()) in
      let create ~dir name ~is_dir =
        ok "create" (pfs.pfs_create ~dir name ~is_dir)
      in
      let dirs =
        List.init 10 (fun d ->
            create ~dir:pfs.pfs_root (Printf.sprintf "d%d" d) ~is_dir:true)
      in
      List.iteri
        (fun d dir ->
          for f = 0 to 99 do
            let id = create ~dir (Printf.sprintf "f%d.%d" d f) ~is_dir:false in
            ignore (ok "write" (pfs.pfs_write id ~off:0 (Bytes.make 100 'x')))
          done)
        dirs;
      let before = accesses cache in
      ignore (create ~dir:(List.nth dirs 5) "new" ~is_dir:false : int);
      let per_create = accesses cache - before in
      if per_create > 40 then
        Alcotest.failf "one create made %d block-cache accesses (at most 40)"
          per_create)

(* --- a rolled-back create ----------------------------------------------- *)

(* A JFS create that allocates its inode and then fails to grow the
   full volume's directory rolls back: the inode is free again, and the
   next create must get it even though a later free sits above it. *)
let test_rolled_back_create () =
  let k = Test_util.kernel_on () in
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Jfs.mkfs disk ~blocks:512 ();
  let cache = F.Block_cache.create k disk () in
  Test_util.run_in_thread k (fun () ->
      let pfs = ok "mount" (F.Jfs.mount cache ()) in
      let root = pfs.pfs_root in
      let create name = pfs.pfs_create ~dir:root name ~is_dir:false in
      let a = ok "create a" (create "a") in
      ignore (ok "create b" (create "b") : int);
      let big = ok "create big" (create "big") in
      (* fill the volume: 4 KiB writes until one fails, then blocks *)
      let rec fill chunk =
        let off = (ok "stat" (pfs.pfs_stat big)).st_size in
        match pfs.pfs_write big ~off (Bytes.make chunk 'z') with
        | Ok _ -> fill chunk
        | Error E_no_space -> if chunk > block_size then fill block_size
        | Error e -> Alcotest.fail (fs_error_to_string e)
      in
      fill 4096;
      Alcotest.(check int) "volume full" 0 (pfs.pfs_free_blocks ());
      (* a 255-byte name fills half the directory's one block *)
      ignore (ok "create long" (create (String.make 255 'l')) : int);
      ok "remove a" (pfs.pfs_remove ~dir:root "a");
      (match create (String.make 255 'm') with
      | Error E_no_space -> ()
      | Ok _ -> Alcotest.fail "the directory grew on a full volume"
      | Error e -> Alcotest.fail (fs_error_to_string e));
      ok "remove big" (pfs.pfs_remove ~dir:root "big");
      Alcotest.(check int) "the rolled-back inode goes to the next create" a
        (ok "create c" (create "c")))

let suite =
  [
    Alcotest.test_case "allocators match the reference scans" `Quick
      test_differential;
    Alcotest.test_case "a create reads blocks, not bits" `Quick
      test_create_accesses;
    Alcotest.test_case "a rolled-back create frees its inode" `Quick
      test_rolled_back_create;
  ]
