(* The vnode layer: per-mount file identity above the physical file
   systems.  A vnode names one (mount, file_id) incarnation; the VFS
   interns vnodes per mount so a file resolved twice is the same object,
   and every operation dispatches through the mount's operation
   vector.  Unlink and crash recovery reclaim vnodes; a reclaimed vnode
   rejects further operations with [E_bad_handle], and every lifecycle
   event is mirrored to Machcheck's vnode checker when one is
   installed. *)

open Fs_types

type mount = {
  m_id : int;
  m_pfs : pfs;
  m_vnodes : (file_id, t) Hashtbl.t;
  (* distinct folded names already counted as union-semantics
     compromises on this mount *)
  m_folded : (string, unit) Hashtbl.t;
  m_space : unit -> (Check.t * int) option;
}

and t = {
  v_mount : mount;
  v_id : file_id;
  v_is_dir : bool;
  mutable v_refs : int;
  mutable v_reclaimed : bool;
}

let make_mount ~id ~space pfs =
  {
    m_id = id;
    m_pfs = pfs;
    m_vnodes = Hashtbl.create 64;
    m_folded = Hashtbl.create 8;
    m_space = space;
  }

let mount_id m = m.m_id
let limits m = m.m_pfs.pfs_limits
let pfs m = m.m_pfs

let mount v = v.v_mount
let id v = v.v_id
let is_dir v = v.v_is_dir
let refs v = v.v_refs
let reclaimed v = v.v_reclaimed

let chk m f =
  match m.m_space () with Some (c, sp) -> f c sp | None -> ()

(* Intern the vnode for [id], creating it on first sight.  Directory-ness
   is fixed at intern time from one stat — ids are never retyped in
   place; reuse after unlink goes through reclaim + re-intern.  The stat
   can wait on the disk under a shared mount lock, and another reader
   may intern the same id meanwhile: its vnode is the one. *)
let intern m fid =
  match Hashtbl.find_opt m.m_vnodes fid with
  | Some v -> v
  | None -> (
      let is_dir =
        match m.m_pfs.pfs_stat fid with
        | Ok st -> st.st_is_dir
        | Error _ -> false
      in
      match Hashtbl.find_opt m.m_vnodes fid with
      | Some v -> v
      | None ->
          let v =
            { v_mount = m; v_id = fid; v_is_dir = is_dir; v_refs = 0;
              v_reclaimed = false }
          in
          Hashtbl.replace m.m_vnodes fid v;
          chk m (fun c sp ->
              Check.vnode_active c ~space:sp ~mount:m.m_id ~file:fid);
          v)

let find m fid = Hashtbl.find_opt m.m_vnodes fid

(* Union-semantics bookkeeping: returns true the first time this folded
   name is seen on the mount, so a compromise counts once per distinct
   name rather than once per walk. *)
let note_folding m ~folded =
  if Hashtbl.mem m.m_folded folded then false
  else begin
    Hashtbl.add m.m_folded folded ();
    true
  end
let root m = intern m m.m_pfs.pfs_root

let ref_ v =
  v.v_refs <- v.v_refs + 1;
  chk v.v_mount (fun c sp ->
      Check.vnode_ref c ~space:sp ~mount:v.v_mount.m_id ~file:v.v_id)

let unref v =
  chk v.v_mount (fun c sp ->
      Check.vnode_unref c ~space:sp ~mount:v.v_mount.m_id ~file:v.v_id);
  v.v_refs <- max 0 (v.v_refs - 1)

(* The file behind [fid] is gone (unlink): its vnode dies.  Outstanding
   references are legitimate — the holder's next use fails. *)
let reclaim m fid =
  match Hashtbl.find_opt m.m_vnodes fid with
  | None -> ()
  | Some v ->
      v.v_reclaimed <- true;
      Hashtbl.remove m.m_vnodes fid;
      chk m (fun c sp ->
          Check.vnode_reclaimed c ~space:sp ~mount:m.m_id ~file:fid)

(* Crash recovery: every vnode of the dead incarnation is reclaimed and
   the checker sweeps for references nobody dropped. *)
let reclaim_all m =
  Hashtbl.iter
    (fun fid v ->
      v.v_reclaimed <- true;
      chk m (fun c sp ->
          Check.vnode_reclaimed c ~space:sp ~mount:m.m_id ~file:fid))
    m.m_vnodes;
  Hashtbl.reset m.m_vnodes;
  chk m (fun c sp -> Check.vnode_mount_recovered c ~space:sp ~mount:m.m_id)

(* Reclaim guard + checker mirror shared by every operation below. *)
let use v ~op : (unit, fs_error) result =
  chk v.v_mount (fun c sp ->
      Check.vnode_used c ~space:sp ~mount:v.v_mount.m_id ~file:v.v_id ~op);
  if v.v_reclaimed then Error E_bad_handle else Ok ()

(* --- operations, dispatched through the mount's vector ------------------- *)

let stat v =
  let* () = use v ~op:"stat" in
  v.v_mount.m_pfs.pfs_stat v.v_id

let lookup v name =
  let* () = use v ~op:"lookup" in
  v.v_mount.m_pfs.pfs_lookup ~dir:v.v_id name

let create v name ~is_dir =
  let* () = use v ~op:"create" in
  v.v_mount.m_pfs.pfs_create ~dir:v.v_id name ~is_dir

let remove v name =
  let* () = use v ~op:"remove" in
  v.v_mount.m_pfs.pfs_remove ~dir:v.v_id name

let readdir v =
  let* () = use v ~op:"readdir" in
  v.v_mount.m_pfs.pfs_readdir ~dir:v.v_id

let read v ~off ~len =
  let* () = use v ~op:"read" in
  v.v_mount.m_pfs.pfs_read v.v_id ~off ~len

let read_paged v ~off ~len =
  let* () = use v ~op:"read_paged" in
  v.v_mount.m_pfs.pfs_read_paged v.v_id ~off ~len

let write v ~off data =
  let* () = use v ~op:"write" in
  v.v_mount.m_pfs.pfs_write v.v_id ~off data

let rename ~src ~dst src_name dst_name =
  let* () = use src ~op:"rename" in
  let* () = use dst ~op:"rename" in
  src.v_mount.m_pfs.pfs_rename ~src_dir:src.v_id src_name ~dst_dir:dst.v_id
    dst_name

(* Pool plumbing is incarnation cleanup, not a file operation: it must
   work during teardown paths, so no reclaim guard. *)
let map_pool v task = v.v_mount.m_pfs.pfs_map_pool task
let release_paged v ~addr ~bytes =
  v.v_mount.m_pfs.pfs_release_paged ~addr ~bytes
