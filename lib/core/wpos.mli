(** Workplace OS: the multi-server assembly — the paper's primary
    artifact.

    [boot] brings up, in order: the IBM Microkernel (on the simulated
    machine), Microkernel Services (personality-neutral runtime, default
    pager, name service, loader), the device drivers under the chosen
    architecture, the shared services (file server over FAT/HPFS/JFS
    volumes, the fine-grained-object networking frameworks), and the
    operating-system personalities (OS/2 with Presentation Manager,
    and optionally MVM) — the full Figure 1 stack, with every server
    findable through the name service. *)

type config = {
  machine_config : Machine.Config.t;
  naming : Mk_services.Bootstrap.naming;
  driver_arch : Drivers.Disk_driver.arch;
  net_style : Finegrain.style;
  with_mvm : bool;
  mvm_translate : bool;  (** PowerPC-style block translation in MVM *)
  with_talos : bool;  (** the (unfinished) TalOS personality *)
  fs_blocks : int;  (** per-volume size *)
}

val default_config : config
(** The Table 1 WPOS machine: a 133 MHz PowerPC 604 with 64 MB, full
    naming, user-level disk driver, fine-grained networking, MVM with the
    translator on. *)

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

val boot : ?config:config -> unit -> t

val run : t -> unit
(** Drive the system until idle. *)

val name_service : t -> Mk_services.Name_service.t
(** @raise Invalid_argument when booted with [Simple_naming]. *)

val inventory : t -> (string * string list) list
(** Figure 1 as data: layer name -> components, bottom up. *)

val pp_figure1 : Format.formatter -> t -> unit
