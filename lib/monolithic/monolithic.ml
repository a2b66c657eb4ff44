open Fileserver.Fs_types

type open_file = {
  of_vn : Fileserver.Vnode.t;
  mutable of_pos : int;
  mutable of_open : bool;
}

type handle = open_file

type t = {
  kernel : Mach.Kernel.t;
  vfs : Fileserver.Vfs.t;
  mutable handles : int;
}

let sem = Fileserver.Vfs.os2_semantics

(* Swap for the monolithic system: a flat extent at the end of the disk,
   written through an in-kernel path (no pager task). *)
let install_swap (kernel : Mach.Kernel.t) =
  let disk = kernel.Mach.Kernel.machine.Machine.disk in
  let geometry = Machine.Disk.geometry disk in
  let swap_start = geometry.Machine.Disk.blocks - 8192 in
  let blocks_per_page = Mach.Ktypes.page_size / geometry.Machine.Disk.block_size in
  let slots : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let next = ref swap_start in
  let slot_for key =
    match Hashtbl.find_opt slots key with
    | Some b -> b
    | None ->
        if !next + blocks_per_page > geometry.Machine.Disk.blocks then
          next := swap_start;
        let b = !next in
        next := !next + blocks_per_page;
        Hashtbl.replace slots key b;
        b
  in
  Mach.Vm.set_default_backing kernel.Mach.Kernel.sys
    {
      Mach.Ktypes.bs_name = "kernel-swap";
      bs_page_in =
        (fun obj idx k ->
          Machine.Disk.read disk
            ~block:(slot_for (obj.Mach.Ktypes.obj_id, idx))
            ~count:blocks_per_page
            (fun (_ : bytes) -> k ()));
      bs_page_out =
        (fun obj idx k ->
          Machine.Disk.write disk
            ~block:(slot_for (obj.Mach.Ktypes.obj_id, idx))
            [ Bytes.make Mach.Ktypes.page_size '\000' ]
            (fun () -> k ()));
    }

let boot machine ?(fs_format = `Hpfs) ?(fs_blocks = 8192) () =
  let kernel = Mach.Kernel.boot machine in
  install_swap kernel;
  let disk = machine.Machine.disk in
  let vfs = Fileserver.Vfs.create () in
  let cache = Fileserver.Block_cache.create kernel disk () in
  let mounted =
    match fs_format with
    | `Fat ->
        Fileserver.Fat.mkfs disk ~blocks:fs_blocks ();
        Fileserver.Fat.mount cache ()
    | `Hpfs ->
        Fileserver.Hpfs.mkfs disk ~blocks:fs_blocks ();
        Fileserver.Hpfs.mount cache ()
    | `Jfs ->
        Fileserver.Jfs.mkfs disk ~blocks:fs_blocks ();
        Fileserver.Jfs.mount cache ()
  in
  (match mounted with
  | Ok pfs -> (
      match Fileserver.Vfs.mount vfs ~at:"/c" pfs with
      | Ok () -> ()
      | Error e -> failwith e)
  | Error e -> failwith (fs_error_to_string e));
  { kernel; vfs; handles = 0 }

let kernel t = t.kernel
let machine t = t.kernel.Mach.Kernel.machine
let vfs t = t.vfs

let spawn_process t ~name body =
  let task =
    Mach.Kernel.task_create t.kernel ~name ~personality:"mono" ()
  in
  ignore (Mach.Kernel.thread_spawn t.kernel task ~name body : Mach.Ktypes.thread);
  task

let run t = Mach.Kernel.run t.kernel

(* every system call traps; the service body then runs in-kernel *)
let syscall t f =
  let sys = t.kernel.Mach.Kernel.sys in
  let result = ref None in
  Mach.Trap.service sys ~work:(fun () -> result := Some (f ())) ();
  Option.get !result

(* one kernel->user copy for read data, user->kernel for writes *)
let copy_to_user t bytes =
  if bytes > 0 then begin
    let k = t.kernel.Mach.Kernel.ktext in
    (* reserve both halves of the bounce copy, and return the buffer so
       the syscall path can't drain the kernel msg-buffer region *)
    let buf = Mach.Ktext.buffer_alloc k ~bytes:(2 * bytes) in
    Mach.Ktext.copy k ~src:buf ~dst:(buf + bytes) ~bytes;
    Mach.Ktext.buffer_free k buf
  end

let sys_open t ~path ?(create = false) () =
  syscall t (fun () ->
      let resolved =
        match Fileserver.Vfs.resolve t.vfs sem ~path with
        | Ok x -> Ok x
        | Error E_not_found when create -> (
            match Fileserver.Vfs.create_file t.vfs sem ~path with
            | Ok (_ : file_id) -> Fileserver.Vfs.resolve t.vfs sem ~path
            | Error e -> Error e)
        | Error e -> Error e
      in
      match resolved with
      | Error e -> Error e
      | Ok Fileserver.Vfs.Root -> Error E_is_dir
      | Ok (Fileserver.Vfs.File vn) -> (
          match Fileserver.Vnode.stat vn with
          | Error e -> Error e
          | Ok st when st.st_is_dir -> Error E_is_dir
          | Ok _ ->
              t.handles <- t.handles + 1;
              Fileserver.Vnode.ref_ vn;
              Ok { of_vn = vn; of_pos = 0; of_open = true }))

let sys_close t h =
  syscall t (fun () ->
      if h.of_open then begin
        h.of_open <- false;
        Fileserver.Vnode.unref h.of_vn;
        t.handles <- t.handles - 1
      end)

let check_open h =
  if h.of_open && not (Fileserver.Vnode.reclaimed h.of_vn) then Ok ()
  else Error E_bad_handle

let sys_read t h ~bytes =
  syscall t (fun () ->
      let* () = check_open h in
      let* data = Fileserver.Vnode.read h.of_vn ~off:h.of_pos ~len:bytes in
      h.of_pos <- h.of_pos + Bytes.length data;
      copy_to_user t (Bytes.length data);
      Ok data)

let sys_write t h data =
  syscall t (fun () ->
      let* () = check_open h in
      copy_to_user t (Bytes.length data);
      let* n = Fileserver.Vnode.write h.of_vn ~off:h.of_pos data in
      h.of_pos <- h.of_pos + n;
      Ok n)

let sys_seek t h ~pos = syscall t (fun () -> h.of_pos <- max 0 pos)

let sys_mkdir t ~path =
  syscall t (fun () ->
      Result.map (fun (_ : file_id) -> ()) (Fileserver.Vfs.mkdir t.vfs sem ~path))

let sys_readdir t ~path = syscall t (fun () -> Fileserver.Vfs.readdir t.vfs sem ~path)
let sys_unlink t ~path = syscall t (fun () -> Fileserver.Vfs.unlink t.vfs sem ~path)
let sys_rename t ~src ~dst =
  syscall t (fun () -> Fileserver.Vfs.rename t.vfs sem ~src ~dst)

let sys_alloc t ~bytes =
  syscall t (fun () ->
      let th = Mach.Sched.self () in
      Mach.Vm.allocate t.kernel.Mach.Kernel.sys th.Mach.Ktypes.t_task ~bytes
        ~eager:true ())

let sys_touch t ~addr ?(write = false) ~bytes () =
  let th = Mach.Sched.self () in
  Mach.Vm.touch t.kernel.Mach.Kernel.sys th.Mach.Ktypes.t_task ~addr ~write
    ~bytes ()

let sys_yield t =
  let sys = t.kernel.Mach.Kernel.sys in
  Mach.Trap.service sys ();
  Mach.Sched.yield ()

let open_handles t = t.handles
