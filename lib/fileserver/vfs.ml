(* The VFS: union semantics over per-format mounts, a vnode layer with
   interned identity, and a DragonFly-style name cache on the walk path.

   Path resolution walks component by component from a mount's root
   vnode.  Each step first checks the current vnode really is a
   directory (a uniform [E_not_dir] across all formats), folds the
   component to the mount's case rules, and probes the name cache;
   repeated lookups therefore cost O(components) hash probes instead of
   per-format directory scans.  Mutations (create / unlink / rename) and
   crash recovery invalidate exactly the entries they falsify.

   "/" resolves to a synthetic root node whose readdir enumerates the
   mount points — the mount table is the root directory. *)

open Fs_types

type semantics = {
  sem_name : string;
  sem_case_sensitive : bool;
  sem_long_names : bool;
}

let os2_semantics =
  { sem_name = "os2"; sem_case_sensitive = false; sem_long_names = true }

let unix_semantics =
  { sem_name = "unix"; sem_case_sensitive = true; sem_long_names = true }

let talos_semantics =
  { sem_name = "talos"; sem_case_sensitive = true; sem_long_names = true }

(* What a path resolves to: the synthetic root, or a vnode. *)
type node = Root | File of Vnode.t

type t = {
  mutable mount_table : (string * Vnode.mount) list;
  mutable next_mount_id : int;
  mutable compromise_count : int;
  cache : Namecache.t;
  mutable cache_on : bool;
  kernel : Mach.Kernel.t option;
  mutable space : (Check.t * int) option;  (* lazy Machcheck space *)
}

(* Resolve the Machcheck space lazily: a checker may be installed after
   the VFS was created (or replaced between workload points). *)
let chk t =
  match Check.installed () with
  | None -> None
  | Some c -> (
      match t.space with
      | Some (c', _) when c' == c -> t.space
      | _ ->
          let sp = Check.new_space c in
          t.space <- Some (c, sp);
          t.space)

let create ?kernel () =
  let t =
    {
      mount_table = [];
      next_mount_id = 0;
      compromise_count = 0;
      cache = Namecache.create ~capacity:512 ();
      cache_on = true;
      kernel;
      space = None;
    }
  in
  (* LRU evictions leave the shadow store too, or the checker would
     flag later legitimate reuse as stale *)
  Namecache.set_on_evict t.cache (fun ~mount ~dir ~name ->
      match chk t with
      | Some (c, sp) -> Check.ncache_invalidated c ~space:sp ~mount ~dir ~name
      | None -> ());
  t

let components path =
  List.filter (fun c -> c <> "") (String.split_on_char '/' path)

let mount t ~at pfs =
  match components at with
  | [ point ] ->
      if List.mem_assoc point t.mount_table then
        Error (Printf.sprintf "mount point %S in use" at)
      else begin
        let id = t.next_mount_id in
        t.next_mount_id <- id + 1;
        let m = Vnode.make_mount ~id ~space:(fun () -> chk t) pfs in
        t.mount_table <- (point, m) :: t.mount_table;
        Ok ()
      end
  | _ -> Error "mount point must be a single top-level component"

let mounts t =
  List.rev_map
    (fun (point, m) -> ("/" ^ point, (Vnode.limits m).fl_format))
    t.mount_table

let compromise t = t.compromise_count <- t.compromise_count + 1
let compromises t = t.compromise_count

(* The name-cache probe: hash-and-compare instructions in kernel text
   plus one cache-line touch of the table (the block cache's
   charge_lookup idiom) — a cached walk has a real, measurable cost per
   component, it just skips the format's directory scan. *)
let charge_probe t =
  match t.kernel with
  | None -> ()
  | Some k ->
      if Option.is_some k.Mach.Kernel.sys.Mach.Sched.current then begin
        Mach.Ktext.exec_in k.Mach.Kernel.ktext
          (Mach.Ktext.text k.Mach.Kernel.ktext)
          ~offset:0x1400 ~bytes:48;
        let data = Mach.Ktext.data k.Mach.Kernel.ktext in
        Machine.Cpu.load k.Mach.Kernel.machine.Machine.cpu
          ~addr:(data.Machine.Layout.base + 0x40) ~bytes:32
      end

(* A raw component lookup is the format's directory scan: dispatch,
   entry decode, string compares — an order of magnitude more
   instructions than the hash probe — plus whatever block-cache traffic
   the scan performs (charged by the format itself). *)
let charge_scan t =
  match t.kernel with
  | None -> ()
  | Some k ->
      if Option.is_some k.Mach.Kernel.sys.Mach.Sched.current then
        Mach.Ktext.exec_in k.Mach.Kernel.ktext
          (Mach.Ktext.text k.Mach.Kernel.ktext)
          ~offset:0x1800 ~bytes:320

(* Fold a component to the mount's case rules: the name-cache key, so
   "File" and "file" share one entry on a case-folding format. *)
let fold m name =
  if (Vnode.limits m).fl_case_sensitive then name
  else String.lowercase_ascii name

let check_name t sem m name =
  let limits = Vnode.limits m in
  if String.length name > limits.fl_max_name then Error E_name_too_long
  else if limits.fl_eight_dot_three && not sem.sem_long_names then
    (* both sides speak 8.3: let the format validate *)
    Ok name
  else begin
    (* a case-sensitive client on a case-folding format loses case
       distinctions: a compromise with no consistent answer.  Only a
       name that actually folds is compromised, and each distinct name
       counts once per mount — not once per walk. *)
    if
      sem.sem_case_sensitive
      && (not limits.fl_case_sensitive)
      && String.lowercase_ascii name <> name
      && Vnode.note_folding m ~folded:(String.lowercase_ascii name)
    then compromise t;
    (* a long-name client on FAT simply cannot store the name *)
    if limits.fl_eight_dot_three then
      match Fat.valid_name name with
      | Ok _ -> Ok name
      | Error e -> Error e
    else Ok name
  end

(* --- name-cache glue ----------------------------------------------------- *)

let cache_store t m ~dir ~name value =
  if t.cache_on then begin
    Namecache.insert t.cache ~mount:(Vnode.mount_id m) ~dir ~name value;
    match (value, chk t) with
    | Namecache.Pos fid, Some (c, sp) ->
        Check.ncache_stored c ~space:sp ~mount:(Vnode.mount_id m) ~dir ~name
          ~file:fid
    | _ -> ()
  end

let cache_invalidate t m ~dir ~name =
  Namecache.invalidate t.cache ~mount:(Vnode.mount_id m) ~dir ~name;
  match chk t with
  | Some (c, sp) ->
      Check.ncache_invalidated c ~space:sp ~mount:(Vnode.mount_id m) ~dir ~name
  | None -> ()

let cache_find t m ~dir ~name =
  if not t.cache_on then None
  else begin
    charge_probe t;
    let r = Namecache.find t.cache ~mount:(Vnode.mount_id m) ~dir ~name in
    (match (r, chk t) with
    | Some _, Some (c, sp) ->
        Check.ncache_hit c ~space:sp ~mount:(Vnode.mount_id m) ~dir ~name
    | _ -> ());
    r
  end

(* --- path walk ----------------------------------------------------------- *)

(* One walk step: [dir] must be a directory (uniform across formats —
   this is the VFS's check, not the physical file system's), the name
   must satisfy the mount's limits, then the cache answers or the
   format's lookup fills it. *)
let lookup_component t sem m dir name =
  if not (Vnode.is_dir dir) then Error E_not_dir
  else
    let* name = check_name t sem m name in
    let folded = fold m name in
    let did = Vnode.id dir in
    let raw () =
      charge_scan t;
      match Vnode.lookup dir name with
      | Ok fid ->
          cache_store t m ~dir:did ~name:folded (Namecache.Pos fid);
          Ok (Vnode.intern m fid)
      | Error E_not_found ->
          cache_store t m ~dir:did ~name:folded Namecache.Neg;
          Error E_not_found
      | Error e -> Error e
    in
    match cache_find t m ~dir:did ~name:folded with
    | Some (Namecache.Pos fid) -> (
        match Vnode.find m fid with
        | Some v when not (Vnode.reclaimed v) -> Ok v
        | Some _ | None ->
            (* stale entry (the shadow checker has flagged it): heal the
               cache and fall back to the real lookup *)
            cache_invalidate t m ~dir:did ~name:folded;
            raw ())
    | Some Namecache.Neg -> Error E_not_found
    | None -> raw ()

let walk t sem m parts =
  let rec go dir = function
    | [] -> Ok dir
    | name :: rest ->
        let* v = lookup_component t sem m dir name in
        go v rest
  in
  go (Vnode.root m) parts

let find_mount_point t point = List.assoc_opt point t.mount_table

let resolve t sem ~path =
  match components path with
  | [] -> Ok Root
  | point :: rest -> (
      match find_mount_point t point with
      | None -> Error E_not_found
      | Some m ->
          let* v = walk t sem m rest in
          Ok (File v))

let resolve_parent t sem ~path =
  match components path with
  | [] -> Error E_bad_name
  | [ point ] ->
      (* a top-level name is a mount point, not a file: it cannot be
         created or removed through the file interface *)
      if List.mem_assoc point t.mount_table then Error E_bad_name
      else Error E_not_found
  | point :: rest -> (
      match find_mount_point t point with
      | None -> Error E_not_found
      | Some m -> (
          match List.rev rest with
          | [] -> Error E_bad_name
          | leaf :: rev_parents ->
              let* dir = walk t sem m (List.rev rev_parents) in
              if not (Vnode.is_dir dir) then Error E_not_dir
              else
                let* leaf = check_name t sem m leaf in
                Ok (m, dir, leaf)))

(* --- operations ---------------------------------------------------------- *)

let root_stat = { st_id = 0; st_size = 0; st_is_dir = true; st_blocks = 0 }

let stat t sem ~path =
  let* n = resolve t sem ~path in
  match n with Root -> Ok root_stat | File v -> Vnode.stat v

let readdir t sem ~path =
  let* n = resolve t sem ~path in
  match n with
  | Root -> Ok (List.sort compare (List.map fst t.mount_table))
  | File v -> Vnode.readdir v

let create_node t sem ~path ~is_dir =
  let* m, dir, leaf = resolve_parent t sem ~path in
  let* fid = Vnode.create dir leaf ~is_dir in
  let folded = fold m leaf in
  (* any negative entry for this name is now false; prime a positive,
     interning the vnode first so the next walk's hit finds it live (a
     reused file id would otherwise read as a stale entry) *)
  ignore (Vnode.intern m fid : Vnode.t);
  cache_invalidate t m ~dir:(Vnode.id dir) ~name:folded;
  cache_store t m ~dir:(Vnode.id dir) ~name:folded (Namecache.Pos fid);
  Ok fid

let mkdir t sem ~path = create_node t sem ~path ~is_dir:true
let create_file t sem ~path = create_node t sem ~path ~is_dir:false

let unlink t sem ~path =
  let* m, dir, leaf = resolve_parent t sem ~path in
  let victim =
    match Vnode.lookup dir leaf with Ok fid -> Some fid | Error _ -> None
  in
  let* () = Vnode.remove dir leaf in
  cache_invalidate t m ~dir:(Vnode.id dir) ~name:(fold m leaf);
  (match victim with Some fid -> Vnode.reclaim m fid | None -> ());
  Ok ()

let mount_of t path =
  match components path with
  | point :: _ -> find_mount_point t point
  | [] -> None

(* A cross-mount rename is refused before either side is walked, so a
   request never holds two mounts' locks taken out of mount-id order;
   past that check both sides resolve on one mount or not at all. *)
let rename t sem ~src ~dst =
  match (mount_of t src, mount_of t dst) with
  | Some a, Some b when Vnode.mount_id a <> Vnode.mount_id b ->
      Error (E_io "cross-mount rename")
  | _ ->
      let* m, sdir, sleaf = resolve_parent t sem ~path:src in
      let* _, ddir, dleaf = resolve_parent t sem ~path:dst in
      let* () = Vnode.rename ~src:sdir ~dst:ddir sleaf dleaf in
      cache_invalidate t m ~dir:(Vnode.id sdir) ~name:(fold m sleaf);
      cache_invalidate t m ~dir:(Vnode.id ddir) ~name:(fold m dleaf);
      Ok ()

(* A request that syncs takes every mount's lock first, in mount-id
   order, so it can never deadlock against another multi-mount request;
   the flushes then run in mount-table order. *)
let sync sys t =
  let by_id =
    List.sort
      (fun (_, a) (_, b) -> compare (Vnode.mount_id a) (Vnode.mount_id b))
      t.mount_table
  in
  List.iter
    (fun (_, m) -> Option.iter (Fs_types.hold sys) (Vnode.pfs m).pfs_lock)
    by_id;
  List.iter (fun (_, m) -> (Vnode.pfs m).pfs_sync ()) t.mount_table

(* The end of a file-server request: drop every mount lock the thread
   took for it. *)
let end_request t th =
  let rec go = function
    | [] -> ()
    | (_, m) :: rest ->
        (match (Vnode.pfs m).pfs_lock with
        | Some l -> Fs_types.release_held l th
        | None -> ());
        go rest
  in
  go t.mount_table

let mount_lock_stats t =
  List.filter_map
    (fun (point, m) ->
      Option.map
        (fun l -> ("/" ^ point, Mach.Sync.lock_stats l))
        (Vnode.pfs m).pfs_lock)
    (List.rev t.mount_table)

let recover t =
  (* the whole incarnation is dead: every cached name and every interned
     vnode with it (recovery can rewind unacknowledged creates, and
     file ids will be reused) *)
  Namecache.clear t.cache;
  (match chk t with
  | Some (c, sp) -> Check.ncache_cleared c ~space:sp
  | None -> ());
  List.fold_left
    (fun acc (_, m) ->
      Vnode.reclaim_all m;
      merge_recovery acc ((Vnode.pfs m).pfs_recover ()))
    clean_recovery t.mount_table

(* --- name-cache controls (A/B and tests) --------------------------------- *)

let set_namecache t on =
  if not on then begin
    Namecache.clear t.cache;
    match chk t with
    | Some (c, sp) -> Check.ncache_cleared c ~space:sp
    | None -> ()
  end;
  t.cache_on <- on

let cache_stats t = Namecache.stats t.cache
