type item =
  | Fetch of { region : Layout.region; offset : int; bytes : int }
  | Load of { addr : int; bytes : int }
  | Store of { addr : int; bytes : int }
  | Uncached_read of { addr : int; bytes : int }
  | Uncached_write of { addr : int; bytes : int }
  | Switch_address_space
  | Stall of int

type t = item list

let fetch region ?(offset = 0) ~bytes () =
  if offset + bytes > region.Layout.size then
    invalid_arg
      (Printf.sprintf "Footprint.fetch: %d+%d exceeds region %S (%d bytes)"
         offset bytes region.Layout.name region.Layout.size);
  Fetch { region; offset; bytes }

let load ~addr ~bytes = Load { addr; bytes }
let store ~addr ~bytes = Store { addr; bytes }

let run region ?(offset = 0) ~code_bytes ?(loads = []) ?(stores = []) () =
  fetch region ~offset ~bytes:code_bytes ()
  :: (List.map (fun (addr, bytes) -> Load { addr; bytes }) loads
     @ List.map (fun (addr, bytes) -> Store { addr; bytes }) stores)

let copy ~src ~dst ~bytes =
  let chunk = 32 in
  let rec loop off acc =
    if off >= bytes then List.rev acc
    else
      let n = Int.min chunk (bytes - off) in
      loop (off + chunk)
        (Store { addr = dst + off; bytes = n }
        :: Load { addr = src + off; bytes = n }
        :: acc)
  in
  loop 0 []

(* Machine-state accounting: the bytes of hardware bookkeeping state the
   simulated machine itself carries.  Caches and TLBs are per-CPU
   structures, so an SMP machine multiplies them by [ncpus] — a density
   measurement that counted one copy would undercount the machine's real
   footprint on every added processor. *)

type machine_state = {
  ms_ncpus : int;
  ms_cache_bytes_per_cpu : int;  (* I$ + D$ data plus tag/state arrays *)
  ms_tlb_bytes_per_cpu : int;
  ms_bus_directory_bytes : int;  (* coherence directory, one per machine *)
  ms_total_bytes : int;
}

let cache_state_bytes (g : Config.cache_geometry) =
  (* data array plus a tag/state word per line *)
  let lines = g.Config.size / g.Config.line in
  g.Config.size + (lines * 4)

let machine_state (c : Config.t) =
  let cache_bytes = cache_state_bytes c.icache + cache_state_bytes c.dcache in
  (* one TLB entry: virtual page tag, physical frame, permission bits *)
  let tlb_bytes = c.tlb_entries * 8 in
  (* the write-invalidate directory exists only on multiprocessors; its
     shadow is sized like a page-table leaf per tracked line window *)
  let dir_bytes = if c.ncpus > 1 then 4096 * 8 else 0 in
  {
    ms_ncpus = c.ncpus;
    ms_cache_bytes_per_cpu = cache_bytes;
    ms_tlb_bytes_per_cpu = tlb_bytes;
    ms_bus_directory_bytes = dir_bytes;
    ms_total_bytes = (c.ncpus * (cache_bytes + tlb_bytes)) + dir_bytes;
  }

let code_bytes t =
  List.fold_left
    (fun acc -> function Fetch { bytes; _ } -> acc + bytes | _ -> acc)
    0 t

