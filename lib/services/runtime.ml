open Mach.Ktypes

type heap = {
  base : int;
  size : int;
  mutable blocks : (int * int) list;  (* (addr, bytes), allocated, sorted *)
  mutable in_use : int;
}

type t = {
  kernel : Mach.Kernel.t;
  lib_text : Machine.Layout.region;
  heaps : (int, heap) Hashtbl.t;  (* task_id -> heap *)
}

type umutex = {
  um_owner_lib : t;
  um_kernel : Mach.Sync.semaphore;
  mutable um_locked : bool;
  mutable um_contentions : int;
}

let install (kernel : Mach.Kernel.t) =
  let layout = kernel.Mach.Kernel.machine.Machine.layout in
  let lib_text =
    match Machine.Layout.find layout "libpn.text" with
    | Some r -> r
    | None ->
        Machine.Layout.alloc layout ~name:"libpn.text" ~kind:Machine.Layout.Code
          ~size:(24 * 1024)
  in
  { kernel; lib_text; heaps = Hashtbl.create 8 }

let text t = t.lib_text

let attach t task =
  if not (List.mem_assoc "libpn" task.libraries) then
    task.libraries <- ("libpn", t.lib_text) :: task.libraries

let execute t ?(offset = 0) ~bytes () =
  Mach.Ktext.exec_in t.kernel.Mach.Kernel.ktext t.lib_text ~offset ~bytes

let heap_for t task =
  match Hashtbl.find_opt t.heaps task.task_id with
  | Some h -> h
  | None ->
      let sys = t.kernel.Mach.Kernel.sys in
      let size = 256 * 1024 in
      let base = Mach.Vm.allocate sys task ~bytes:size () in
      let h = { base; size; blocks = []; in_use = 0 } in
      Hashtbl.replace t.heaps task.task_id h;
      h

(* First-fit with a 16-byte grain: simple, and fragmentation behaviour is
   observable in tests. *)
let malloc t task ~bytes =
  execute t ~offset:0x200 ~bytes:96 ();
  let h = heap_for t task in
  let bytes = max 16 ((bytes + 15) / 16 * 16) in
  let rec fit prev rest =
    let candidate =
      match prev with None -> h.base | Some (a, s) -> a + s
    in
    match rest with
    | [] ->
        if candidate + bytes <= h.base + h.size then candidate
        else raise (Kern_error Kern_resource_shortage)
    | (a, s) :: tl ->
        if candidate + bytes <= a then candidate else fit (Some (a, s)) tl
  in
  let addr = fit None h.blocks in
  h.blocks <-
    List.sort (fun (a, _) (b, _) -> compare a b) ((addr, bytes) :: h.blocks);
  h.in_use <- h.in_use + bytes;
  addr

let free t task addr =
  execute t ~offset:0x200 ~bytes:64 ();
  let h = heap_for t task in
  match List.assoc_opt addr h.blocks with
  | None -> raise (Kern_error Kern_invalid_argument)
  | Some bytes ->
      h.blocks <- List.remove_assoc addr h.blocks;
      h.in_use <- h.in_use - bytes

let heap_bytes_in_use t task = (heap_for t task).in_use

let umutex_create t ~name =
  {
    um_owner_lib = t;
    um_kernel =
      Mach.Sync.semaphore_create t.kernel.Mach.Kernel.sys ~name ~value:0;
    um_locked = false;
    um_contentions = 0;
  }

let umutex_lock u =
  let t = u.um_owner_lib in
  execute t ~offset:0x500 ~bytes:48 ();
  let rec acquire () =
    if not u.um_locked then u.um_locked <- true
    else begin
      (* contended: fall into the kernel and sleep on the semaphore *)
      u.um_contentions <- u.um_contentions + 1;
      ignore
        (Mach.Sync.semaphore_wait t.kernel.Mach.Kernel.sys u.um_kernel
          : kern_return);
      acquire ()
    end
  in
  acquire ()

let umutex_unlock u =
  let t = u.um_owner_lib in
  execute t ~offset:0x500 ~bytes:40 ();
  u.um_locked <- false;
  if Mach.Sync.semaphore_waiters u.um_kernel > 0 then
    Mach.Sync.semaphore_signal t.kernel.Mach.Kernel.sys u.um_kernel

let umutex_lock t u =
  ignore t;
  umutex_lock u

let umutex_unlock t u =
  ignore t;
  umutex_unlock u

let umutex_contentions u = u.um_contentions

let format_cost t ~chars =
  (* formatting is branchy scalar code: ~12 bytes of code per character;
     re-fetching the same loop body models the (cache-resident) iteration *)
  let total = max 64 (chars * 12) in
  let cap = t.lib_text.Machine.Layout.size - 0x700 in
  let rec loop rem =
    if rem > 0 then begin
      execute t ~offset:0x700 ~bytes:(min rem cap) ();
      loop (rem - cap)
    end
  in
  loop total
