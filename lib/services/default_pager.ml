open Mach.Ktypes

let blocks_per_page = page_size / 512

(* the swap extent on the system disk *)
let swap_start = 24576
let swap_blocks = 16384

type t = {
  kernel : Mach.Kernel.t;
  text : Machine.Layout.region;
  slots : (int * int, int) Hashtbl.t;  (* (obj_id, page idx) -> block *)
  mutable next_block : int;
  mutable pageins : int;
  mutable pageouts : int;
}

let charge t = Mach.Ktext.exec_in t.kernel.Mach.Kernel.ktext t.text ~offset:0x100 ~bytes:384

let slot_for t key =
  match Hashtbl.find_opt t.slots key with
  | Some b -> b
  | None ->
      if t.next_block + blocks_per_page > swap_start + swap_blocks then
        t.next_block <- swap_start;
      let b = t.next_block in
      t.next_block <- t.next_block + blocks_per_page;
      Hashtbl.replace t.slots key b;
      b

let start (kernel : Mach.Kernel.t) =
  let layout = kernel.Mach.Kernel.machine.Machine.layout in
  let text =
    match Machine.Layout.find layout "default-pager.text" with
    | Some r -> r
    | None ->
        Machine.Layout.alloc layout ~name:"default-pager.text"
          ~kind:Machine.Layout.Code ~size:(8 * 1024)
  in
  let t =
    {
      kernel;
      text;
      slots = Hashtbl.create 64;
      next_block = swap_start;
      pageins = 0;
      pageouts = 0;
    }
  in
  let disk = kernel.Mach.Kernel.machine.Machine.disk in
  let backing =
    {
      bs_name = "default-pager";
      bs_page_in =
        (fun obj idx k ->
          t.pageins <- t.pageins + 1;
          charge t;
          let block = slot_for t (obj.obj_id, idx) in
          Machine.Disk.read disk ~block ~count:blocks_per_page (fun (_ : bytes) ->
              k ()));
      bs_page_out =
        (fun obj idx k ->
          t.pageouts <- t.pageouts + 1;
          charge t;
          let block = slot_for t (obj.obj_id, idx) in
          Machine.Disk.write disk ~block
            [ Bytes.make page_size '\000' ]
            (fun () -> k ()));
    }
  in
  Mach.Vm.set_default_backing kernel.Mach.Kernel.sys backing;
  t

let pageins t = t.pageins
let pageouts t = t.pageouts
let swap_blocks_used t = Hashtbl.length t.slots * blocks_per_page
