(* Rigging shared by the workloads: the Pentium machine at N CPUs, the
   seeded LCG, bound threads, bounded reply polling and the HPFS volume
   the file workloads mount at /os2. *)

open Mach.Ktypes
module F = Fileserver

let config ~ncpus =
  Machine.Config.with_ncpus Machine.Config.pentium_133 ~n:ncpus

let lcg s = ((s * 1103515245) + 12345) land 0x3fffffff

let fail_fs e = failwith (F.Fs_types.fs_error_to_string e)

let spawn_on k task name ~cpu body =
  ignore
    (Mach.Kernel.thread_spawn k task ~name ~affinity:cpu ~bound:true body
      : thread)

let sleep sys cycles =
  ignore (Mach.Clock.sleep_for sys ~cycles : kern_return)

(* Poll for an echo reply with a bounded budget, draining duplicates left
   by earlier retries of the same operation. *)
let poll_reply sys net s ~polls ~gap =
  let rec go n =
    match Netserver.try_recv net s with
    | Some _ ->
        let rec drain () =
          match Netserver.try_recv net s with
          | Some _ -> drain ()
          | None -> ()
        in
        drain ();
        true
    | None ->
        if n = 0 then false
        else begin
          sleep sys gap;
          go (n - 1)
        end
  in
  go polls

(* A fresh HPFS volume on [disk], behind its own block cache, mounted at
   /os2 in [vfs]; returns the cache. *)
let mount_hpfs k disk vfs =
  F.Hpfs.mkfs disk ();
  let cache = F.Block_cache.create k disk () in
  (match F.Hpfs.mount cache () with
  | Ok pfs -> (
      match F.Vfs.mount vfs ~at:"/os2" pfs with
      | Ok () -> ()
      | Error e -> failwith e)
  | Error e -> fail_fs e);
  cache

(* One edit session: create [path], write 256 bytes of [fill], read them
   back in [reads] 64-byte chunks, close, and sync. *)
let edit_session fs sem ~path ~fill ~reads =
  let module C = F.File_server.Client in
  let ( let* ) = Result.bind in
  let* h = C.open_ fs sem ~path ~create:true () in
  let* _ = C.write fs h (Bytes.make 256 fill) in
  C.seek fs h ~pos:0;
  let rec read n =
    if n = 0 then Ok ()
    else
      let* _ = C.read fs h ~bytes:64 in
      read (n - 1)
  in
  let* () = read reads in
  C.close fs h;
  C.sync fs;
  Ok ()

(* Stamp each point's speedup over the 1-CPU point of its own series. *)
let with_speedups ~series ~ncpus ~throughput ~set points =
  let anchor p =
    List.find_opt (fun a -> series a = series p && ncpus a = 1) points
  in
  List.map
    (fun p ->
      match anchor p with
      | Some a when throughput a > 0.0 -> set p (throughput p /. throughput a)
      | _ -> set p 1.0)
    points
