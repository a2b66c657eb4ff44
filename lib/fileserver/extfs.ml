open Fs_types

(* On-disk layout (512-byte blocks, offsets relative to [start]):
     block 0          superblock
     bitmap           one bit per data block
     inode table      64-byte inodes
     journal          (journalled configs) ring of record blocks
     data             extents live here
   Inode (64 bytes):
     0      flags: bit0 used, bit1 directory
     4..7   size (LE32)
     8..55  six extents of (start LE32, len LE32), block numbers relative
            to data_start
   Directory data: a sequence of entries
     [2B total entry length][4B inode][2B name length][name bytes]
   terminated by a zero entry length. *)

let block_size = 512
let inode_size = 64
(* Extents per inode: exceeding this under fragmentation yields
   [E_no_space], a genuine format constraint. *)
let max_extents = 6
let magic = "EXT1"

type config = {
  cfg_format : string;
  cfg_max_name : int;
  cfg_case_sensitive : bool;
  cfg_journalled : bool;
}

type geom = {
  start : int;
  total : int;
  bitmap_start : int;
  bitmap_blocks : int;
  itable_start : int;
  itable_blocks : int;
  inodes : int;
  journal_start : int;
  journal_blocks : int;
  data_start : int;
  data_blocks : int;
}

type t = {
  cache : Block_cache.t;
  cfg : config;
  g : geom;
  journal : Journal.t option;  (* Some iff the config is journalled *)
  (* Transaction overlay: while an operation is open, mutated blocks are
     buffered here instead of the cache, so nothing (not even an
     eviction) can reach the disk before the journal commit.  On success
     the overlay is journalled, then applied to the cache; on error it
     is simply dropped — operation-level rollback. *)
  mutable txn : (int * bytes) list option;  (* newest first *)
  (* Next-fit allocation hints: no free data block lies below
     [block_hint] and no free inode below [inode_hint], in the volume as
     the open transaction sees it.  A free lowers them, an allocation
     scan that starts at one raises it to what it found, and a rolled
     back transaction restores them with its blocks. *)
  mutable block_hint : int;
  mutable inode_hint : int;
}

(* Journal statistics live in the journal itself, which the cache can
   reach: nothing here outlives the mount. *)
let journal_writes cache =
  match Block_cache.journal cache with
  | Some j -> Journal.records_written j
  | None -> 0

let last_recovery cache =
  Option.map Journal.last_recovery (Block_cache.journal cache)

let journal_blocks cache =
  match Block_cache.journal cache with Some j -> Journal.blocks j | None -> 0

let get16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let set16 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

let get32 b off = get16 b off lor (get16 b (off + 2) lsl 16)

let set32 b off v =
  set16 b off (v land 0xffff);
  set16 b (off + 2) ((v lsr 16) land 0xffff)

(* --- geometry ----------------------------------------------------------- *)

(* The journal ring grows with the volume, as mke2fs sizes ext3's
   journal from the file system: 1/32 of the blocks, at least 64. *)
let geom_of cfg ~start ~blocks ~inodes =
  let bitmap_blocks = (blocks + (block_size * 8) - 1) / (block_size * 8) in
  let itable_blocks = (inodes * inode_size + block_size - 1) / block_size in
  let journal_blocks = if cfg.cfg_journalled then max 64 (blocks / 32) else 0 in
  let data_start = 1 + bitmap_blocks + itable_blocks + journal_blocks in
  {
    start;
    total = blocks;
    bitmap_start = 1;
    bitmap_blocks;
    itable_start = 1 + bitmap_blocks;
    itable_blocks;
    inodes;
    journal_start = 1 + bitmap_blocks + itable_blocks;
    journal_blocks;
    data_start;
    data_blocks = blocks - data_start;
  }

(* --- block access through the transaction overlay ----------------------- *)

let cache_read t block =
  match t.txn with
  | Some ov -> (
      match List.assoc_opt block ov with
      | Some d -> Bytes.copy d
      | None -> Block_cache.read t.cache block)
  | None -> Block_cache.read t.cache block

let cache_write t block data =
  match t.txn with
  | Some ov ->
      t.txn <- Some ((block, Bytes.copy data) :: List.remove_assoc block ov)
  | None -> Block_cache.write t.cache block data

let meta_write t block data = cache_write t block data

(* Run one mutating operation as a journal transaction.  On [Ok] the
   overlay is committed (journal records + barrier, the durability
   point) and applied to the write-back cache; on [Error] or an
   exception the overlay is discarded and the volume is untouched. *)
let in_txn t j f =
  if t.txn <> None then f ()  (* nested: join the open txn *)
  else begin
    t.txn <- Some [];
    let block_hint = t.block_hint and inode_hint = t.inode_hint in
    let rollback () =
      t.txn <- None;
      t.block_hint <- block_hint;
      t.inode_hint <- inode_hint
    in
    match f () with
    | exception e ->
        rollback ();
        raise e
    | Error _ as r ->
        rollback ();
        r
    | Ok _ as r ->
        let ov = match t.txn with Some o -> List.rev o | None -> [] in
        t.txn <- None;
        if ov <> [] then begin
          let logged = Journal.commit j ov in
          List.iter (fun (b, d) -> Block_cache.write t.cache ~logged b d) ov
        end;
        r
  end

(* --- bitmap -------------------------------------------------------------- *)

let bits_per_block = block_size * 8

let bitmap_block t bit = t.g.start + t.g.bitmap_start + (bit / bits_per_block)

let bit_set b bit =
  Char.code (Bytes.get b (bit / 8 mod block_size)) land (1 lsl (bit mod 8)) <> 0

let set_block t data_block used =
  let block = bitmap_block t data_block in
  let byte = data_block / 8 mod block_size in
  let mask = 1 lsl (data_block mod 8) in
  let b = cache_read t block in
  let v = Char.code (Bytes.get b byte) in
  let v = if used then v lor mask else v land lnot mask in
  Bytes.set b byte (Char.chr (v land 0xff));
  meta_write t block b;
  if not used then t.block_hint <- min t.block_hint data_block
  else if data_block = t.block_hint then t.block_hint <- data_block + 1

(* The first clear bit in [lo, hi), reading each bitmap block once and
   stepping over full bytes whole. *)
let first_clear t ~lo ~hi =
  let rec from_block bit =
    if bit >= hi then None
    else begin
      let b = cache_read t (bitmap_block t bit) in
      let stop = min hi ((bit / bits_per_block + 1) * bits_per_block) in
      let rec probe i =
        if i >= stop then from_block stop
        else if i mod 8 = 0 && i + 8 <= stop
                && Bytes.get b (i / 8 mod block_size) = '\xff'
        then probe (i + 8)
        else if not (bit_set b i) then Some i
        else probe (i + 1)
      in
      probe bit
    end
  in
  from_block lo

(* The first free data block at or after [from], else the first on the
   volume.  The scan starts at [max from hint] and wraps to the hint,
   which finds the same block: none lies below the hint.  A scan from
   the hint moves the hint up to what it found. *)
let find_free t ~from =
  let hint = t.block_hint in
  let lo = max from hint in
  let found =
    match first_clear t ~lo ~hi:t.g.data_blocks with
    | Some _ as r -> r
    | None -> first_clear t ~lo:hint ~hi:lo
  in
  (match found with
  | Some i when i < lo || lo = hint -> t.block_hint <- i
  | Some _ -> ()
  | None -> t.block_hint <- t.g.data_blocks);
  found

(* --- inodes -------------------------------------------------------------- *)

type inode = {
  ino : int;
  mutable i_used : bool;
  mutable i_dir : bool;
  mutable i_size : int;
  mutable i_extents : (int * int) list;  (* (start, len), data-relative *)
}

let inode_location t ino =
  let byte = ino * inode_size in
  (t.g.start + t.g.itable_start + (byte / block_size), byte mod block_size)

let inodes_per_block = block_size / inode_size

let inode_used b off = get32 b off land 1 <> 0

(* inode [ino], stored at [off] of its inode-table block [b] *)
let decode_inode b off ino =
  let flags = get32 b off in
  let extents = ref [] in
  for i = max_extents - 1 downto 0 do
    let s = get32 b (off + 8 + (i * 8)) in
    let l = get32 b (off + 12 + (i * 8)) in
    if l > 0 then extents := (s, l) :: !extents
  done;
  {
    ino;
    i_used = flags land 1 <> 0;
    i_dir = flags land 2 <> 0;
    i_size = get32 b (off + 4);
    i_extents = !extents;
  }

let read_inode t ino =
  if ino < 0 || ino >= t.g.inodes then Error E_bad_handle
  else begin
    let block, off = inode_location t ino in
    Ok (decode_inode (cache_read t block) off ino)
  end

let write_inode t (i : inode) =
  let block, off = inode_location t i.ino in
  let b = cache_read t block in
  set32 b off ((if i.i_used then 1 else 0) lor if i.i_dir then 2 else 0);
  set32 b (off + 4) i.i_size;
  List.iteri
    (fun idx (s, l) ->
      set32 b (off + 8 + (idx * 8)) s;
      set32 b (off + 12 + (idx * 8)) l)
    i.i_extents;
  for idx = List.length i.i_extents to max_extents - 1 do
    set32 b (off + 8 + (idx * 8)) 0;
    set32 b (off + 12 + (idx * 8)) 0
  done;
  meta_write t block b

(* The first unused inode, scanned from the hint one inode-table block
   at a time. *)
let alloc_inode t ~dir =
  let rec from_block ino =
    if ino >= t.g.inodes then begin
      t.inode_hint <- t.g.inodes;
      Error E_no_space
    end
    else begin
      let block, _ = inode_location t ino in
      let b = cache_read t block in
      let stop =
        min t.g.inodes ((ino / inodes_per_block + 1) * inodes_per_block)
      in
      let rec probe ino =
        if ino >= stop then from_block stop
        else if inode_used b (snd (inode_location t ino)) then probe (ino + 1)
        else begin
          t.inode_hint <- ino + 1;
          let i =
            { ino; i_used = true; i_dir = dir; i_size = 0; i_extents = [] }
          in
          write_inode t i;
          Ok i
        end
      in
      probe ino
    end
  in
  from_block t.inode_hint

(* grow the inode by one data block; extends the last extent when the
   next block is adjacent, otherwise opens a new extent *)
let grow_one t (i : inode) =
  let from =
    match List.rev i.i_extents with (s, l) :: _ -> s + l | [] -> 0
  in
  match find_free t ~from with
  | None -> Error E_no_space
  | Some blk ->
      set_block t blk true;
      let rec extend = function
        | [] -> Some [ (blk, 1) ]
        | [ (s, l) ] when s + l = blk -> Some [ (s, l + 1) ]
        | [ last ] ->
            if List.length i.i_extents >= max_extents then None
            else Some [ last; (blk, 1) ]
        | e :: rest -> Option.map (fun r -> e :: r) (extend rest)
      in
      (match extend i.i_extents with
      | None ->
          set_block t blk false;
          Error E_no_space  (* extent table exhausted: fragmentation *)
      | Some extents ->
          i.i_extents <- extents;
          write_inode t i;
          Ok ())

let nth_block t (i : inode) n =
  let rec walk n = function
    | [] -> None
    | (s, l) :: rest -> if n < l then Some (s + n) else walk (n - l) rest
  in
  Option.map (fun d -> t.g.start + t.g.data_start + d) (walk n i.i_extents)

let blocks_held (i : inode) =
  List.fold_left (fun acc (_, l) -> acc + l) 0 i.i_extents

let free_inode t (i : inode) =
  List.iter
    (fun (s, l) ->
      for b = s to s + l - 1 do
        set_block t b false
      done)
    i.i_extents;
  i.i_used <- false;
  i.i_dir <- false;
  i.i_size <- 0;
  i.i_extents <- [];
  write_inode t i;
  t.inode_hint <- min t.inode_hint i.ino

(* --- file data ----------------------------------------------------------- *)

let read_data t (i : inode) ~off ~len =
  let len = max 0 (min len (i.i_size - off)) in
  let out = Bytes.make len '\000' in
  let rec copy pos =
    if pos < len then begin
      let fpos = off + pos in
      match nth_block t i (fpos / block_size) with
      | None -> ()  (* hole *)
      | Some block ->
          let b = cache_read t block in
          let boff = fpos mod block_size in
          let n = min (block_size - boff) (len - pos) in
          Bytes.blit b boff out pos n;
          copy (pos + n)
    end
  in
  copy 0;
  out

(* Zero-copy read: land whole blocks in cache pool pages so the file
   server can COW-remap them into the client instead of copying the
   bytes through the reply message.  The data still comes back as bytes
   (the simulation's ground truth); the pool pages carry the cost. *)
let read_paged t (i : inode) ~off ~len =
  let page_size = Mach.Ktypes.page_size in
  let len = max 0 (min len (i.i_size - off)) in
  if len = 0 || off mod block_size <> 0 then None
  else begin
    let pages = (len + page_size - 1) / page_size in
    match Block_cache.pool_acquire t.cache ~pages ~pin:true with
    | None -> None  (* pool unmapped or exhausted: copy path *)
    | Some base ->
        let out = Bytes.make len '\000' in
        let rec fill pos =
          if pos < len then begin
            let fpos = off + pos in
            (match nth_block t i (fpos / block_size) with
            | None -> ()  (* hole: the pool page is already zero *)
            | Some block ->
                let b = Block_cache.pool_fill t.cache ~dst:(base + pos) block in
                Bytes.blit b 0 out pos (min block_size (len - pos)));
            fill (pos + block_size)
          end
        in
        fill 0;
        Some (base, pages * page_size, out)
  end

let write_data t (i : inode) ~off data =
  let len = Bytes.length data in
  let needed = (off + len + block_size - 1) / block_size in
  let rec ensure () =
    if blocks_held i >= needed then Ok ()
    else
      match grow_one t i with Ok () -> ensure () | Error e -> Error e
  in
  let* () = ensure () in
  let rec copy pos =
    if pos < len then begin
      let fpos = off + pos in
      match nth_block t i (fpos / block_size) with
      | None -> assert false
      | Some block ->
          let boff = fpos mod block_size in
          let n = min (block_size - boff) (len - pos) in
          let b =
            if n = block_size then Bytes.make block_size '\000'
            else cache_read t block
          in
          Bytes.blit data pos b boff n;
          cache_write t block b;
          copy (pos + n)
    end
  in
  copy 0;
  if off + len > i.i_size then begin
    i.i_size <- off + len;
    write_inode t i
  end;
  Ok len

(* --- directories ---------------------------------------------------------- *)

let canon t name =
  if t.cfg.cfg_case_sensitive then name else String.lowercase_ascii name

let valid_name t name =
  if name = "" || String.contains name '/' || String.contains name '\000' then
    Error E_bad_name
  else if String.length name > t.cfg.cfg_max_name then Error E_name_too_long
  else Ok name

let dir_entries t (i : inode) =
  let data = read_data t i ~off:0 ~len:i.i_size in
  let rec parse off acc =
    if off + 8 > Bytes.length data then List.rev acc
    else
      let total = get16 data off in
      if total = 0 then List.rev acc
      else
        let ino = get32 data (off + 2) in
        let nlen = get16 data (off + 6) in
        let name = Bytes.sub_string data (off + 8) nlen in
        parse (off + total) ((name, ino) :: acc)
  in
  parse 0 []

let write_entries t (i : inode) entries =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, ino) ->
      let nlen = String.length name in
      let total = 8 + nlen in
      let b = Bytes.make total '\000' in
      set16 b 0 total;
      set32 b 2 ino;
      set16 b 6 nlen;
      Bytes.blit_string name 0 b 8 nlen;
      Buffer.add_bytes buf b)
    entries;
  Buffer.add_string buf "\000\000\000\000\000\000\000\000";
  let data = Buffer.to_bytes buf in
  let* (_ : int) = write_data t i ~off:0 data in
  i.i_size <- Bytes.length data;
  write_inode t i;
  Ok ()

let find_in_dir t (i : inode) name =
  let cname = canon t name in
  List.find_opt (fun (n, _) -> canon t n = cname) (dir_entries t i)

(* --- fsck ----------------------------------------------------------------- *)

(* Full invariant scan of the volume, trusting nothing: extent ranges,
   cross-links, bitmap-vs-extents agreement, strict directory-entry
   parsing, dangling and duplicate entries, reference counts, and sizes
   against held blocks.  Every violation is one human-readable finding;
   a consistent volume yields none. *)
let fsck_scan t =
  let findings = ref [] in
  let add fmt = Printf.ksprintf (fun s -> findings := s :: !findings) fmt in
  let sb = cache_read t t.g.start in
  if Bytes.sub_string sb 0 4 <> magic then add "superblock: bad magic";
  let claims = Array.make t.g.data_blocks 0 in
  let inodes = Array.make t.g.inodes None in
  (* one read per inode-table block, decoding each of its inodes *)
  for blk = 0 to t.g.itable_blocks - 1 do
    let b = cache_read t (t.g.start + t.g.itable_start + blk) in
    let first = blk * inodes_per_block in
    for slot = 0 to min inodes_per_block (t.g.inodes - first) - 1 do
      let ino = first + slot in
      let i = decode_inode b (slot * inode_size) ino in
      if i.i_used then begin
        inodes.(ino) <- Some i;
        List.iter
          (fun (s, l) ->
            if s < 0 || l <= 0 || s + l > t.g.data_blocks then
              add "inode %d: extent (%d,%d) out of range" ino s l
            else
              for b = s to s + l - 1 do
                claims.(b) <- claims.(b) + 1
              done)
          i.i_extents;
        if i.i_size < 0 || i.i_size > blocks_held i * block_size then
          add "inode %d: size %d exceeds %d held bytes" ino i.i_size
            (blocks_held i * block_size)
      end
    done
  done;
  Array.iteri
    (fun b c -> if c > 1 then add "block %d: cross-linked (%d claims)" b c)
    claims;
  (* bitmap vs extents, one bitmap block at a time *)
  for bb = 0 to t.g.bitmap_blocks - 1 do
    let b = cache_read t (t.g.start + t.g.bitmap_start + bb) in
    for byte = 0 to block_size - 1 do
      let v = Char.code (Bytes.get b byte) in
      for bit = 0 to 7 do
        let db = (bb * block_size * 8) + (byte * 8) + bit in
        if db < t.g.data_blocks then begin
          let used = v land (1 lsl bit) <> 0 in
          if used && claims.(db) = 0 then
            add "block %d: allocated but unreferenced" db
          else if (not used) && claims.(db) > 0 then
            add "block %d: in use but free in bitmap" db
        end
      done
    done
  done;
  (* directory walk from the root, with strict entry parsing *)
  let refs = Array.make t.g.inodes 0 in
  let visited = Array.make t.g.inodes false in
  let rec walk ino =
    if not visited.(ino) then begin
      visited.(ino) <- true;
      match inodes.(ino) with
      | Some i when i.i_dir ->
          let data = read_data t i ~off:0 ~len:i.i_size in
          let seen = Hashtbl.create 8 in
          let rec parse off =
            if off + 8 > Bytes.length data then ()
            else
              let total = get16 data off in
              if total = 0 then ()
              else if total < 8 || off + total > Bytes.length data then
                add "dir %d: torn entry at offset %d" ino off
              else begin
                let e_ino = get32 data (off + 2) in
                let nlen = get16 data (off + 6) in
                if nlen <> total - 8 || nlen = 0 then
                  add "dir %d: malformed entry at offset %d" ino off
                else begin
                  let name = Bytes.sub_string data (off + 8) nlen in
                  (match valid_name t name with
                  | Error _ -> add "dir %d: invalid name %S" ino name
                  | Ok _ -> ());
                  let cname = canon t name in
                  if Hashtbl.mem seen cname then
                    add "dir %d: duplicate entry %S" ino name
                  else Hashtbl.add seen cname ();
                  if e_ino < 0 || e_ino >= t.g.inodes || inodes.(e_ino) = None
                  then add "dir %d: entry %S references free inode %d" ino name e_ino
                  else begin
                    refs.(e_ino) <- refs.(e_ino) + 1;
                    match inodes.(e_ino) with
                    | Some c when c.i_dir -> walk e_ino
                    | _ -> ()
                  end
                end;
                parse (off + total)
              end
          in
          parse 0
      | Some _ | None -> ()
    end
  in
  (match inodes.(0) with
  | Some i when i.i_dir -> walk 0
  | _ -> add "root inode missing or not a directory");
  Array.iteri
    (fun ino u ->
      match u with
      | Some _ when ino <> 0 ->
          if refs.(ino) = 0 then
            add "inode %d: orphaned (no directory entry)" ino
          else if refs.(ino) > 1 then
            add "inode %d: referenced %d times" ino refs.(ino)
      | _ -> ())
    inodes;
  List.rev !findings

(* --- recovery ------------------------------------------------------------- *)

(* Supervised-restart recovery.  Journalled volumes drop the dead
   incarnation's cache entirely (the journal, not dirty memory, is the
   truth), replay, and scan; non-journalled volumes keep their cache —
   invalidating it would lose acknowledged writes that have no journal
   copy — and just reclaim the mapout pool before scanning. *)
let recover t =
  t.block_hint <- 0;
  t.inode_hint <- 0;
  match t.journal with
  | None ->
      Block_cache.pool_reset t.cache;
      {
        rr_journal_txns = 0;
        rr_journal_blocks = 0;
        rr_fsck_findings = fsck_scan t;
      }
  | Some j ->
      Block_cache.invalidate t.cache;
      let rv = Journal.recover j in
      {
        rr_journal_txns = rv.Journal.rv_replayed_txns;
        rr_journal_blocks = rv.Journal.rv_replayed_blocks;
        rr_fsck_findings = fsck_scan t;
      }

(* --- mkfs / mount ---------------------------------------------------------- *)

let default_blocks = 8192
let default_inodes = 512

let mkfs disk cfg ?(start = 0) ?(blocks = default_blocks)
    ?(inodes = default_inodes) () =
  let g = geom_of cfg ~start ~blocks ~inodes in
  let sb = Bytes.make block_size '\000' in
  Bytes.blit_string magic 0 sb 0 4;
  set32 sb 4 blocks;
  set32 sb 8 inodes;
  Machine.Disk.write_image disk ~block:start sb;
  let zero = Bytes.make block_size '\000' in
  for b = 1 to g.data_start - 1 do
    Machine.Disk.write_image disk ~block:(start + b) zero
  done;
  (* inode 0: the root directory, initially empty *)
  let root = Bytes.make block_size '\000' in
  set32 root 0 3;  (* used + dir *)
  Machine.Disk.write_image disk ~block:(start + g.itable_start) root

let ensure_inode t ino ~want_dir =
  let* i = read_inode t ino in
  if not i.i_used then Error E_bad_handle
  else
    match want_dir with
    | Some true when not i.i_dir -> Error E_not_dir
    | Some false when i.i_dir -> Error E_is_dir
    | Some _ | None -> Ok i

(* The operation vector.  The mutating entries are written as plain
   un-journalled bodies; a journalled volume wraps them with
   [Fs_types.journalled], so journaling lives at the vector rather than
   inside every operation.  The mount lock ([Fs_types.serialized]) goes
   outside the journal, so no transaction body ever waits on it. *)
let ops t =
  let pfs =
    {
      pfs_limits =
        {
          fl_format = t.cfg.cfg_format;
          fl_max_name = t.cfg.cfg_max_name;
          fl_case_sensitive = t.cfg.cfg_case_sensitive;
          fl_preserves_case = true;
          fl_eight_dot_three = false;
          fl_journalled = t.cfg.cfg_journalled;
        };
      pfs_root = 0;
      pfs_lookup =
        (fun ~dir name ->
          let* name = valid_name t name in
          let* d = ensure_inode t dir ~want_dir:(Some true) in
          match find_in_dir t d name with
          | Some (_, ino) -> Ok ino
          | None -> Error E_not_found);
      pfs_create =
        (fun ~dir name ~is_dir ->
          let* name = valid_name t name in
          let* d = ensure_inode t dir ~want_dir:(Some true) in
          match find_in_dir t d name with
          | Some _ -> Error E_exists
          | None ->
              let* i = alloc_inode t ~dir:is_dir in
              let* () =
                write_entries t d (dir_entries t d @ [ (name, i.ino) ])
              in
              Ok i.ino);
      pfs_remove =
        (fun ~dir name ->
          let* name = valid_name t name in
          let* d = ensure_inode t dir ~want_dir:(Some true) in
          match find_in_dir t d name with
          | None -> Error E_not_found
          | Some (ename, ino) ->
              let* i = ensure_inode t ino ~want_dir:None in
              let* () =
                if i.i_dir && dir_entries t i <> [] then Error E_dir_not_empty
                else Ok ()
              in
              free_inode t i;
              write_entries t d
                (List.filter (fun (n, _) -> n <> ename) (dir_entries t d)));
      pfs_readdir =
        (fun ~dir ->
          let* d = ensure_inode t dir ~want_dir:(Some true) in
          Ok (List.sort compare (List.map fst (dir_entries t d))));
      pfs_stat =
        (fun ino ->
          let* i = ensure_inode t ino ~want_dir:None in
          Ok
            {
              st_id = ino;
              st_size = i.i_size;
              st_is_dir = i.i_dir;
              st_blocks = blocks_held i;
            });
      pfs_read =
        (fun ino ~off ~len ->
          let* i = ensure_inode t ino ~want_dir:(Some false) in
          Ok (read_data t i ~off ~len));
      pfs_map_pool = (fun task -> Block_cache.map_pool t.cache task);
      pfs_read_paged =
        (fun ino ~off ~len ->
          let* i = ensure_inode t ino ~want_dir:(Some false) in
          Ok (read_paged t i ~off ~len));
      pfs_release_paged =
        (fun ~addr ~bytes ->
          Block_cache.pool_release t.cache ~addr
            ~pages:(Mach.Ktypes.pages_of_bytes bytes));
      pfs_write =
        (fun ino ~off data ->
          let* i = ensure_inode t ino ~want_dir:(Some false) in
          write_data t i ~off data);
      pfs_truncate =
        (fun ino ~len ->
          let* i = ensure_inode t ino ~want_dir:(Some false) in
          if len > i.i_size then Error E_no_space
          else begin
            i.i_size <- len;
            write_inode t i;
            Ok ()
          end);
      pfs_rename =
        (fun ~src_dir name ~dst_dir new_name ->
          let* name = valid_name t name in
          let* new_name = valid_name t new_name in
          let* sd = ensure_inode t src_dir ~want_dir:(Some true) in
          match find_in_dir t sd name with
          | None -> Error E_not_found
          | Some (ename, ino) ->
              let* dd = ensure_inode t dst_dir ~want_dir:(Some true) in
              (match find_in_dir t dd new_name with
              | Some _ -> Error E_exists
              | None ->
                  if src_dir = dst_dir then
                    write_entries t sd
                      (List.map
                         (fun (n, x) ->
                           if n = ename then (new_name, x) else (n, x))
                         (dir_entries t sd))
                  else
                    let* () =
                      write_entries t sd
                        (List.filter
                           (fun (n, _) -> n <> ename)
                           (dir_entries t sd))
                    in
                    write_entries t dd
                      (dir_entries t dd @ [ (new_name, ino) ])));
      pfs_sync = (fun () -> Block_cache.flush t.cache);
      pfs_free_blocks =
        (fun () ->
          let free = ref 0 in
          for bb = 0 to t.g.bitmap_blocks - 1 do
            let b = cache_read t (t.g.start + t.g.bitmap_start + bb) in
            for bit = bb * bits_per_block
                to min t.g.data_blocks ((bb + 1) * bits_per_block) - 1 do
              if not (bit_set b bit) then incr free
            done
          done;
          !free);
      pfs_recover = (fun () -> recover t);
      pfs_lock = None;
    }
  in
  let pfs =
    match t.journal with
    | None -> pfs
    | Some j -> journalled { txn_run = (fun f -> in_txn t j f) } pfs
  in
  serialized (Block_cache.kernel t.cache).Mach.Kernel.sys pfs

let mount cache cfg ?(start = 0) () =
  let sb = Block_cache.read cache start in
  if Bytes.sub_string sb 0 4 <> magic then
    Error (E_io ("not a " ^ cfg.cfg_format ^ " volume"))
  else begin
    let blocks = get32 sb 4 in
    let inodes = get32 sb 8 in
    let g = geom_of cfg ~start ~blocks ~inodes in
    let journal =
      if cfg.cfg_journalled && g.journal_blocks > 0 then begin
        (* attaching runs recovery: committed-but-unapplied transactions
           from a previous incarnation replay into the cache before the
           first operation can observe the volume *)
        let j =
          Journal.attach (Block_cache.kernel cache) (Block_cache.disk cache)
            ~start:(start + g.journal_start) ~blocks:g.journal_blocks
            ~home_write:(fun b d -> Block_cache.write cache b d)
            ~flush_home:(fun ~through -> Block_cache.flush_wait ~through cache)
        in
        Block_cache.set_journal cache j;
        Some j
      end
      else None
    in
    Ok
      (ops
         { cache; cfg; g; journal; txn = None; block_hint = 0; inode_hint = 0 })
  end

(* Standalone invariant scan for tools and the crash-point enumerator:
   mounts nothing, journals nothing, reads through the given cache. *)
let fsck cache cfg ?(start = 0) () =
  let sb = Block_cache.read cache start in
  if Bytes.sub_string sb 0 4 <> magic then [ "superblock: bad magic" ]
  else begin
    let blocks = get32 sb 4 in
    let inodes = get32 sb 8 in
    let g = geom_of cfg ~start ~blocks ~inodes in
    fsck_scan
      {
        cache;
        cfg;
        g;
        journal = None;
        txn = None;
        block_hint = 0;
        inode_hint = 0;
      }
  end
