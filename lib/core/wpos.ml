type config = {
  machine_config : Machine.Config.t;
  naming : Mk_services.Bootstrap.naming;
  driver_arch : Drivers.Disk_driver.arch;
  net_style : Finegrain.style;
  with_mvm : bool;
  mvm_translate : bool;
  with_talos : bool;
  fs_blocks : int;
}

let default_config =
  {
    machine_config = Machine.Config.ppc604_133;
    naming = Mk_services.Bootstrap.Full_naming;
    driver_arch = Drivers.Disk_driver.User_level;
    net_style = Finegrain.Fine_grained;
    with_mvm = true;
    mvm_translate = true;
    with_talos = true;
    fs_blocks = 4096;
  }

type t = {
  config : config;
  machine : Machine.t;
  kernel : Mach.Kernel.t;
  services : Mk_services.Bootstrap.t;
  resource_manager : Drivers.Resource_manager.t;
  disk_driver : Drivers.Disk_driver.t;
  display_driver : Drivers.Display_driver.t;
  vfs : Fileserver.Vfs.t;
  file_server : Fileserver.File_server.t;
  net : Netserver.t;
  os2 : Personalities.Os2.t;
  pm : Personalities.Pm.t;
  mvm : Personalities.Mvm.t option;
  talos : Personalities.Talos.t option;
}

let mount_volumes kernel vfs ~fs_blocks =
  let disk = kernel.Mach.Kernel.machine.Machine.disk in
  Fileserver.Fat.mkfs disk ~start:0 ~blocks:fs_blocks ();
  Fileserver.Hpfs.mkfs disk ~start:fs_blocks ~blocks:fs_blocks ();
  Fileserver.Jfs.mkfs disk ~start:(2 * fs_blocks) ~blocks:fs_blocks ();
  let cache = Fileserver.Block_cache.create kernel disk () in
  let mnt at mount =
    match mount cache with
    | Ok pfs -> (
        match Fileserver.Vfs.mount vfs ~at pfs with
        | Ok () -> ()
        | Error e -> failwith e)
    | Error e -> failwith (Fileserver.Fs_types.fs_error_to_string e)
  in
  mnt "/c" (fun c -> Fileserver.Fat.mount c ~start:0 ());
  mnt "/os2" (fun c -> Fileserver.Hpfs.mount c ~start:fs_blocks ());
  mnt "/aix" (fun c -> Fileserver.Jfs.mount c ~start:(2 * fs_blocks) ())

let register_servers t =
  match t.services.Mk_services.Bootstrap.name_service with
  | None -> ()
  | Some ns ->
      let db = Mk_services.Name_service.db ns in
      let bind path ?port attrs =
        Mk_services.Name_db.rebind db ~path ~attributes:attrs ?port ()
      in
      bind "/servers/files"
        ~port:(Fileserver.File_server.port t.file_server)
        [ ("kind", "shared-service"); ("service", "file") ];
      bind "/servers/os2"
        ~port:(Personalities.Os2.server_port t.os2)
        [ ("kind", "personality"); ("service", "os2") ];
      bind "/servers/net" [ ("kind", "shared-service"); ("service", "network") ];
      List.iter
        (fun (mount, format) ->
          bind
            (Printf.sprintf "/volumes%s" mount)
            [ ("format", format) ])
        (Fileserver.Vfs.mounts t.vfs)

let boot ?(config = default_config) () =
  let machine = Machine.create config.machine_config in
  let services = Mk_services.Bootstrap.boot ~naming:config.naming machine in
  let kernel = services.Mk_services.Bootstrap.kernel in
  let runtime = services.Mk_services.Bootstrap.runtime in
  let resource_manager = Drivers.Resource_manager.create kernel in
  let disk_driver =
    match
      Drivers.Disk_driver.start kernel resource_manager
        ~arch:config.driver_arch
    with
    | Ok d -> d
    | Error e -> failwith ("wpos boot: disk driver: " ^ e)
  in
  let display_driver =
    match Drivers.Display_driver.start kernel resource_manager with
    | Ok d -> d
    | Error e -> failwith ("wpos boot: display driver: " ^ e)
  in
  let vfs = Fileserver.Vfs.create () in
  mount_volumes kernel vfs ~fs_blocks:config.fs_blocks;
  let file_server = Fileserver.File_server.start kernel runtime vfs () in
  let net = Netserver.create kernel ~style:config.net_style in
  let name_service = services.Mk_services.Bootstrap.name_service in
  let os2 =
    Personalities.Os2.start kernel runtime file_server ?name_service ()
  in
  let pm = Personalities.Pm.create kernel os2 in
  let mvm =
    if config.with_mvm then
      Some
        (Personalities.Mvm.start kernel runtime ~file_server
           ~translate:config.mvm_translate ())
    else None
  in
  let talos =
    if config.with_talos then
      Some (Personalities.Talos.start kernel runtime file_server ())
    else None
  in
  let t =
    {
      config;
      machine;
      kernel;
      services;
      resource_manager;
      disk_driver;
      display_driver;
      vfs;
      file_server;
      net;
      os2;
      pm;
      mvm;
      talos;
    }
  in
  register_servers t;
  t

let run t = Mach.Kernel.run t.kernel

let name_service t = Mk_services.Bootstrap.name_service_exn t.services

let inventory t =
  let microkernel =
    [
      "IPC/RPC"; "virtual memory"; "tasks and threads";
      "hosts and processor sets"; "I/O support"; "clocks and timers";
      "kernel synchronizers";
    ]
  in
  let mk_services = Mk_services.Bootstrap.components t.services in
  let drivers =
    [
      Printf.sprintf "disk (%s)"
        (match Drivers.Disk_driver.arch t.disk_driver with
        | Drivers.Disk_driver.User_level -> "user-level"
        | Drivers.Disk_driver.Kernel_bsd -> "in-kernel BSD-style"
        | Drivers.Disk_driver.Ooddm -> "OODDM");
      "display";
    ]
  in
  let shared =
    ("file server ("
    ^ String.concat ", " (List.map snd (Fileserver.Vfs.mounts t.vfs))
    ^ ")")
    :: [
         (match Finegrain.style (Netserver.objects t.net) with
         | Finegrain.Fine_grained -> "networking (fine-grained frameworks)"
         | Finegrain.Coarse -> "networking (coarse objects)");
       ]
  in
  let personalities =
    ("OS/2 server + doscalls + PM"
    :: (match t.mvm with Some _ -> [ "MVM (DOS/Windows)" ] | None -> []))
    @ (match t.talos with
      | Some _ -> [ "TalOS (frameworks only; never finished)" ]
      | None -> [])
  in
  let is_server_task name = Filename.check_suffix name "-server" in
  let apps =
    List.filter_map
      (fun (task : Mach.Ktypes.task) ->
        match task.Mach.Ktypes.personality with
        | "os2" | "mvm" | "talos"
          when not (is_server_task task.Mach.Ktypes.task_name) ->
            Some task.Mach.Ktypes.task_name
        | _ -> None)
      (Mach.Kernel.tasks t.kernel)
  in
  [
    ("microkernel (privileged)", microkernel);
    ("microkernel services", mk_services);
    ("device drivers", drivers);
    ("shared services", shared);
    ("personality servers", personalities);
    ("applications", apps);
  ]

let pp_figure1 ppf t =
  Format.fprintf ppf "@[<v>Workplace OS on %a@,@,"
    Machine.Config.pp t.machine.Machine.config;
  List.iter
    (fun (layer, components) ->
      Format.fprintf ppf "%-26s | %s@," layer (String.concat "; " components))
    (List.rev (inventory t));
  Format.fprintf ppf "@]"
