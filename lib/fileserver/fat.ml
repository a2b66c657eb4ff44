open Fs_types

(* On-disk layout (all offsets relative to [start], 512-byte blocks):
     block 0            boot sector
     blocks 1..f        the FAT: 16-bit entries, entry c at byte 2c
     blocks f+1..r      root directory: 32-byte entries
     blocks r+1..end    data clusters, one block per cluster
   Directory entry (32 bytes):
     0..7   name, space padded      8..10  extension, space padded
     11     attribute (0x10 = dir)  12..15 size, little endian
     16..17 first cluster, LE       18..31 reserved
   FAT entry values: 0 free, 0xffff end of chain, else next cluster.
   Clusters are numbered from 2, as in real FAT. *)

let block_size = 512
let dirents_per_block = block_size / 32
let magic = "FAT1"

type geom = {
  start : int;
  total : int;
  fat_start : int;
  fat_blocks : int;
  root_start : int;
  root_blocks : int;
  data_start : int;
  clusters : int;
}

type t = {
  cache : Block_cache.t;
  g : geom;
  (* where each file's directory entry lives: cluster -> (block, slot) *)
  entries : (int, int * int) Hashtbl.t;
  (* next-fit hint: no free cluster lies below it; a free lowers it *)
  mutable free_hint : int;
}

let root_id = 1

let limits =
  {
    fl_format = "fat";
    fl_max_name = 12;
    fl_case_sensitive = false;
    fl_preserves_case = false;
    fl_eight_dot_three = true;
    fl_journalled = false;
  }

(* --- name handling ----------------------------------------------------- *)

let valid_char c =
  (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '-'

let valid_name name =
  let name = String.uppercase_ascii name in
  let base, ext =
    match String.rindex_opt name '.' with
    | Some i -> (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
    | None -> (name, "")
  in
  if base = "" || String.contains base '.' || String.contains ext '.' then
    Error E_bad_name
  else if String.length base > 8 || String.length ext > 3 then
    Error E_name_too_long
  else if
    String.for_all valid_char base
    && (ext = "" || String.for_all valid_char ext)
  then Ok (if ext = "" then base else base ^ "." ^ ext)
  else Error E_bad_name

let pack_name name =
  (* [name] is already validated/upcased *)
  let base, ext =
    match String.rindex_opt name '.' with
    | Some i -> (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
    | None -> (name, "")
  in
  let pad s n = s ^ String.make (n - String.length s) ' ' in
  pad base 8 ^ pad ext 3

let unpack_name raw =
  let base = String.trim (String.sub raw 0 8) in
  let ext = String.trim (String.sub raw 8 3) in
  if ext = "" then base else base ^ "." ^ ext

(* --- low-level accessors ----------------------------------------------- *)

let get16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let set16 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

let get32 b off =
  get16 b off lor (get16 b (off + 2) lsl 16)

let set32 b off v =
  set16 b off (v land 0xffff);
  set16 b (off + 2) ((v lsr 16) land 0xffff)

let fat_get t cluster =
  let byte = cluster * 2 in
  let block = t.g.start + t.g.fat_start + (byte / block_size) in
  let b = Block_cache.read t.cache block in
  get16 b (byte mod block_size)

let fat_set t cluster v =
  let byte = cluster * 2 in
  let block = t.g.start + t.g.fat_start + (byte / block_size) in
  let b = Block_cache.read t.cache block in
  set16 b (byte mod block_size) v;
  Block_cache.write t.cache block b;
  if v = 0 then t.free_hint <- min t.free_hint cluster

let eof = 0xffff
let entries_per_block = block_size / 2

(* Each FAT block in [first, limit) once, with the clusters it holds
   there: [f b lo hi] sees clusters [lo, hi) in block [b] and returns
   [Some] to stop. *)
let scan_fat t ~first ~limit f =
  let rec from_block c =
    if c >= limit then None
    else begin
      let block = t.g.start + t.g.fat_start + (c * 2 / block_size) in
      let stop = min limit ((c / entries_per_block + 1) * entries_per_block) in
      match f (Block_cache.read t.cache block) c stop with
      | Some _ as r -> r
      | None -> from_block stop
    end
  in
  from_block first

(* The lowest free cluster, scanned from the hint. *)
let alloc_cluster t =
  let limit = t.g.clusters + 2 in
  let free_in b lo hi =
    let rec probe c =
      if c >= hi then None
      else if get16 b (c * 2 mod block_size) = 0 then Some c
      else probe (c + 1)
    in
    probe lo
  in
  match scan_fat t ~first:t.free_hint ~limit free_in with
  | None ->
      t.free_hint <- limit;
      Error E_no_space
  | Some c ->
      t.free_hint <- c + 1;
      fat_set t c eof;
      Ok c

let cluster_block t c = t.g.start + t.g.data_start + (c - 2)

(* chain as a list of clusters *)
let chain t first =
  let rec walk c acc n =
    if c = eof || c = 0 || n > t.g.clusters then List.rev acc
    else walk (fat_get t c) (c :: acc) (n + 1)
  in
  walk first [] 0

let free_chain t first =
  List.iter (fun c -> fat_set t c 0) (chain t first)

(* --- directory access --------------------------------------------------- *)

(* blocks of a directory, in order *)
let dir_blocks t dir =
  if dir = root_id then
    List.init t.g.root_blocks (fun i -> t.g.start + t.g.root_start + i)
  else List.map (cluster_block t) (chain t dir)

type dirent = {
  de_block : int;
  de_slot : int;
  de_name : string;
  de_attr : int;
  de_size : int;
  de_cluster : int;
}

let read_dirent b block slot =
  let off = slot * 32 in
  let first = Bytes.get b off in
  if first = '\000' || first = '\xe5' then None
  else
    Some
      {
        de_block = block;
        de_slot = slot;
        de_name = unpack_name (Bytes.sub_string b off 11);
        de_attr = Char.code (Bytes.get b (off + 11));
        de_size = get32 b (off + 12);
        de_cluster = get16 b (off + 16);
      }

let iter_dirents t dir f =
  List.iter
    (fun block ->
      let b = Block_cache.read t.cache block in
      for slot = 0 to dirents_per_block - 1 do
        match read_dirent b block slot with
        | Some de -> f de
        | None -> ()
      done)
    (dir_blocks t dir)

let find_dirent t dir name =
  let found = ref None in
  iter_dirents t dir (fun de ->
      if !found = None && de.de_name = name then found := Some de);
  !found

let write_dirent t ~block ~slot ~name ~attr ~size ~cluster =
  let b = Block_cache.read t.cache block in
  let off = slot * 32 in
  Bytes.blit_string (pack_name name) 0 b off 11;
  Bytes.set b (off + 11) (Char.chr attr);
  set32 b (off + 12) size;
  set16 b (off + 16) cluster;
  Block_cache.write t.cache block b;
  Hashtbl.replace t.entries cluster (block, slot)

let clear_dirent t ~block ~slot =
  let b = Block_cache.read t.cache block in
  Bytes.set b (slot * 32) '\xe5';
  Block_cache.write t.cache block b

(* a free slot in the directory, extending subdirectories when full *)
let free_slot t dir =
  let result = ref None in
  List.iter
    (fun block ->
      if !result = None then begin
        let b = Block_cache.read t.cache block in
        for slot = 0 to dirents_per_block - 1 do
          if !result = None then
            let first = Bytes.get b (slot * 32) in
            if first = '\000' || first = '\xe5' then result := Some (block, slot)
        done
      end)
    (dir_blocks t dir);
  match !result with
  | Some bs -> Ok bs
  | None ->
      if dir = root_id then Error E_no_space  (* fixed root, as in FAT *)
      else begin
        match alloc_cluster t with
        | Error e -> Error e
        | Ok c ->
            (match List.rev (chain t dir) with
            | last :: _ -> fat_set t last c
            | [] -> fat_set t dir c);
            let block = cluster_block t c in
            Block_cache.write t.cache block (Bytes.make block_size '\000');
            Ok (block, 0)
      end

(* --- mkfs / mount ------------------------------------------------------- *)

let default_blocks = 8192

let geom_of ~start ~blocks =
  let clusters_guess = blocks - 1 in
  let fat_blocks = ((clusters_guess + 2) * 2 + block_size - 1) / block_size in
  let root_blocks = 8 in
  let data_start = 1 + fat_blocks + root_blocks in
  {
    start;
    total = blocks;
    fat_start = 1;
    fat_blocks;
    root_start = 1 + fat_blocks;
    root_blocks;
    data_start;
    clusters = blocks - data_start;
  }

let mkfs disk ?(start = 0) ?(blocks = default_blocks) () =
  let g = geom_of ~start ~blocks in
  let boot = Bytes.make block_size '\000' in
  Bytes.blit_string magic 0 boot 0 4;
  set32 boot 4 g.total;
  set16 boot 8 g.fat_blocks;
  set16 boot 10 g.root_blocks;
  Machine.Disk.write_image disk ~block:start boot;
  let zero = Bytes.make block_size '\000' in
  for i = 1 to g.data_start - 1 do
    Machine.Disk.write_image disk ~block:(start + i) zero
  done

let rec mount cache ?(start = 0) () =
  let boot = Block_cache.read cache start in
  if Bytes.sub_string boot 0 4 <> magic then Error (E_io "not a FAT volume")
  else begin
    let total = get32 boot 4 in
    let g = geom_of ~start ~blocks:total in
    let t = { cache; g; entries = Hashtbl.create 64; free_hint = 2 } in
    (* prime the cluster -> directory-entry map *)
    let rec scan_dir dir =
      iter_dirents t dir (fun de ->
          Hashtbl.replace t.entries de.de_cluster (de.de_block, de.de_slot);
          if de.de_attr land 0x10 <> 0 then scan_dir de.de_cluster)
    in
    scan_dir root_id;
    Ok (serialized (Block_cache.kernel cache).Mach.Kernel.sys (ops t))
  end

(* --- pfs operations ----------------------------------------------------- *)

and stat_of t id =
  if id = root_id then
    Ok
      {
        st_id = root_id;
        st_size = t.g.root_blocks * block_size;
        st_is_dir = true;
        st_blocks = t.g.root_blocks;
      }
  else
    match Hashtbl.find_opt t.entries id with
    | None -> Error E_bad_handle
    | Some (block, slot) -> (
        let b = Block_cache.read t.cache block in
        match read_dirent b block slot with
        | None -> Error E_bad_handle
        | Some de ->
            Ok
              {
                st_id = id;
                st_size = de.de_size;
                st_is_dir = de.de_attr land 0x10 <> 0;
                st_blocks = List.length (chain t id);
              })

and set_size t id size =
  match Hashtbl.find_opt t.entries id with
  | None -> Error E_bad_handle
  | Some (block, slot) ->
      let b = Block_cache.read t.cache block in
      set32 b ((slot * 32) + 12) size;
      Block_cache.write t.cache block b;
      Ok ()

and ensure_dir t id =
  let* st = stat_of t id in
  if st.st_is_dir then Ok () else Error E_not_dir

and read_file t id ~off ~len =
  let* st = stat_of t id in
  if st.st_is_dir then Error E_is_dir
  else begin
    let len = max 0 (min len (st.st_size - off)) in
    if len = 0 then Ok Bytes.empty
    else begin
      let out = Bytes.make len '\000' in
      let clusters = Array.of_list (chain t id) in
      let rec copy pos =
        if pos < len then begin
          let fpos = off + pos in
          let ci = fpos / block_size in
          if ci >= Array.length clusters then Ok out  (* sparse tail *)
          else begin
            let b = Block_cache.read t.cache (cluster_block t clusters.(ci)) in
            let boff = fpos mod block_size in
            let n = min (block_size - boff) (len - pos) in
            Bytes.blit b boff out pos n;
            copy (pos + n)
          end
        end
        else Ok out
      in
      copy 0
    end
  end

and write_file t id ~off data =
  let* st = stat_of t id in
  if st.st_is_dir then Error E_is_dir
  else begin
    let len = Bytes.length data in
    let needed_blocks = (off + len + block_size - 1) / block_size in
    (* grow the chain as needed: walk it once, then append at the tail
       (a file always owns at least its first cluster) *)
    let rec grow rev_cs n =
      if n >= max 1 needed_blocks then Ok (List.rev rev_cs)
      else
        match alloc_cluster t with
        | Error e -> Error e
        | Ok c ->
            (match rev_cs with
            | last :: _ -> fat_set t last c
            | [] -> assert false);
            grow (c :: rev_cs) (n + 1)
    in
    let cs = chain t id in
    let* cs = grow (List.rev cs) (List.length cs) in
    let clusters = Array.of_list cs in
    let rec copy pos =
      if pos < len then begin
        let fpos = off + pos in
        let ci = fpos / block_size in
        let block = cluster_block t clusters.(ci) in
        let boff = fpos mod block_size in
        let n = min (block_size - boff) (len - pos) in
        let b =
          if n = block_size then Bytes.make block_size '\000'
          else Block_cache.read t.cache block
        in
        Bytes.blit data pos b boff n;
        Block_cache.write t.cache block b;
        copy (pos + n)
      end
    in
    copy 0;
    let new_size = max st.st_size (off + len) in
    let* () = set_size t id new_size in
    Ok len
  end

(* FAT writes out the four entries its layout has no use for: no
   zero-copy pool (reads take the copy path), and no journal, so
   recovery has nothing to replay or scan. *)
and ops t =
  {
    pfs_limits = limits;
    pfs_root = root_id;
    pfs_lookup =
      (fun ~dir name ->
        let* () = ensure_dir t dir in
        let* name = valid_name name in
        match find_dirent t dir name with
        | Some de -> Ok de.de_cluster
        | None -> Error E_not_found);
    pfs_create =
      (fun ~dir name ~is_dir ->
        let* () = ensure_dir t dir in
        let* name = valid_name name in
        match find_dirent t dir name with
        | Some _ -> Error E_exists
        | None ->
            let* block, slot = free_slot t dir in
            let* c = alloc_cluster t in
            if is_dir then begin
              let db = cluster_block t c in
              Block_cache.write t.cache db (Bytes.make block_size '\000')
            end;
            write_dirent t ~block ~slot ~name
              ~attr:(if is_dir then 0x10 else 0x00)
              ~size:0 ~cluster:c;
            Ok c);
    pfs_remove =
      (fun ~dir name ->
        let* () = ensure_dir t dir in
        let* name = valid_name name in
        match find_dirent t dir name with
        | None -> Error E_not_found
        | Some de ->
            let* () =
              if de.de_attr land 0x10 <> 0 then begin
                let empty = ref true in
                iter_dirents t de.de_cluster (fun _ -> empty := false);
                if !empty then Ok () else Error E_dir_not_empty
              end
              else Ok ()
            in
            free_chain t de.de_cluster;
            Hashtbl.remove t.entries de.de_cluster;
            clear_dirent t ~block:de.de_block ~slot:de.de_slot;
            Ok ());
    pfs_readdir =
      (fun ~dir ->
        let* () = ensure_dir t dir in
        let acc = ref [] in
        iter_dirents t dir (fun de -> acc := de.de_name :: !acc);
        Ok (List.sort compare !acc));
    pfs_stat = (fun id -> stat_of t id);
    pfs_read = (fun id ~off ~len -> read_file t id ~off ~len);
    pfs_write = (fun id ~off data -> write_file t id ~off data);
    pfs_truncate =
      (fun id ~len ->
        let* st = stat_of t id in
        if st.st_is_dir then Error E_is_dir
        else if len > st.st_size then Error E_no_space
        else begin
          (* keep enough clusters for [len], free the rest *)
          let keep = max 1 ((len + block_size - 1) / block_size) in
          let cs = chain t id in
          let rec cut i = function
            | [] -> ()
            | c :: rest ->
                if i = keep - 1 then begin
                  fat_set t c eof;
                  List.iter (fun x -> fat_set t x 0) rest
                end
                else cut (i + 1) rest
          in
          cut 0 cs;
          set_size t id len
        end);
    pfs_rename =
      (fun ~src_dir name ~dst_dir new_name ->
        let* () = ensure_dir t src_dir in
        let* () = ensure_dir t dst_dir in
        let* name = valid_name name in
        let* new_name = valid_name new_name in
        match find_dirent t src_dir name with
        | None -> Error E_not_found
        | Some de -> (
            match find_dirent t dst_dir new_name with
            | Some _ -> Error E_exists
            | None ->
                let* block, slot = free_slot t dst_dir in
                write_dirent t ~block ~slot ~name:new_name ~attr:de.de_attr
                  ~size:de.de_size ~cluster:de.de_cluster;
                clear_dirent t ~block:de.de_block ~slot:de.de_slot;
                Ok ()));
    pfs_map_pool = (fun _ -> ());
    pfs_read_paged = (fun _ ~off:_ ~len:_ -> Ok None);
    pfs_release_paged = (fun ~addr:_ ~bytes:_ -> ());
    pfs_sync = (fun () -> Block_cache.flush t.cache);
    pfs_free_blocks =
      (fun () ->
        let free = ref 0 in
        ignore
          (scan_fat t ~first:2 ~limit:(t.g.clusters + 2) (fun b lo hi ->
               for c = lo to hi - 1 do
                 if get16 b (c * 2 mod block_size) = 0 then incr free
               done;
               None)
            : unit option);
        !free);
    pfs_recover = (fun () -> clean_recovery);
    pfs_lock = None;
  }
