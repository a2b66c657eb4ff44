open Mach.Ktypes

type arena = {
  a_base : int;
  a_size : int;
  mutable a_blocks : (int * int) list;  (* allocated (addr, bytes) *)
  mutable a_next : int;  (* bump pointer within the arena *)
}

type t = {
  kernel : Mach.Kernel.t;
  task : task;
  mutable objects : (int * int) list;  (* DosAllocMem (addr, bytes) *)
  mutable arena_list : arena list;
  mutable requested : int;
  mutable committed : int;
}

let arena_bytes = 64 * 1024

let create kernel task =
  { kernel; task; objects = []; arena_list = []; requested = 0; committed = 0 }

(* the second memory manager's own work: bookkeeping loads/stores in the
   process's data segment *)
let charge t =
  let addr = t.task.data.Machine.Layout.base + 0x700 in
  let cpu = t.kernel.Mach.Kernel.machine.Machine.cpu in
  Machine.Cpu.load cpu ~addr ~bytes:64;
  Machine.Cpu.store cpu ~addr:(addr + 64) ~bytes:32

let dos_alloc_mem t ~bytes =
  charge t;
  if bytes <= 0 then Error Kern_invalid_argument
  else begin
    let size = pages_of_bytes bytes * page_size in
    (* commitment semantics: eager allocation underneath *)
    let addr =
      Mach.Vm.allocate t.kernel.Mach.Kernel.sys t.task ~bytes:size ~eager:true ()
    in
    t.objects <- (addr, size) :: t.objects;
    t.requested <- t.requested + bytes;
    t.committed <- t.committed + size;
    Ok addr
  end

let fresh_arena t =
  match dos_alloc_mem t ~bytes:arena_bytes with
  | Error e -> Error e
  | Ok base ->
      let a = { a_base = base; a_size = arena_bytes; a_blocks = []; a_next = 0 } in
      t.arena_list <- a :: t.arena_list;
      (* arena allocation is not a user request; undo the double count *)
      t.requested <- t.requested - arena_bytes;
      Ok a

let dos_sub_alloc t ~bytes =
  charge t;
  if bytes <= 0 then Error Kern_invalid_argument
  else begin
    let grain = (bytes + 7) / 8 * 8 in
    let rec find = function
      | [] -> (
          match fresh_arena t with
          | Error e -> Error e
          | Ok a -> find [ a ])
      | a :: rest ->
          if a.a_next + grain <= a.a_size then begin
            let addr = a.a_base + a.a_next in
            a.a_next <- a.a_next + grain;
            a.a_blocks <- (addr, grain) :: a.a_blocks;
            t.requested <- t.requested + bytes;
            Ok addr
          end
          else find rest
    in
    find t.arena_list
  end

let dos_sub_free t addr =
  charge t;
  List.iter
    (fun a ->
      match List.assoc_opt addr a.a_blocks with
      | Some grain ->
          a.a_blocks <- List.remove_assoc addr a.a_blocks;
          t.requested <- t.requested - grain
      | None -> ())
    t.arena_list

let os2_committed_bytes t = t.committed
let user_requested_bytes t = max 0 t.requested

(* byte-granularity bookkeeping: a header per block and per object, plus
   arena tables — the concrete cost of the second manager *)
let bookkeeping_bytes t =
  let per_block = 16 in
  List.fold_left
    (fun acc a -> acc + 64 + (per_block * List.length a.a_blocks))
    (64 * List.length t.objects)
    t.arena_list

let arenas t = List.length t.arena_list
