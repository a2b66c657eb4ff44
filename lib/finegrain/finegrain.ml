type style = Fine_grained | Coarse

type klass = {
  k_name : string;
  k_super : klass option;
  k_method_bytes : int;
  k_offset_seed : int;  (* where this class's methods land in the text *)
}

type obj = { o_class : klass; mutable o_live : bool; o_state_bytes : int }

type t = {
  kernel : Mach.Kernel.t;
  st : style;
  text : Machine.Layout.region;
  vtables : Machine.Layout.region;
  mutable classes : klass list;
  mutable vcall_count : int;
  mutable live : int;
  mutable object_bytes : int;
}

(* Region sizes reflect the paper's complaint: the fine-grained framework
   text and its runtime dwarf the disciplined coarse equivalent. *)
let text_bytes = function Fine_grained -> 192 * 1024 | Coarse -> 48 * 1024
let runtime_bytes = function Fine_grained -> 256 * 1024 | Coarse -> 48 * 1024
let header_bytes = function Fine_grained -> 32 | Coarse -> 8
let wrapper_state_bytes = function Fine_grained -> 96 | Coarse -> 0

let default_method_bytes = function Fine_grained -> 96 | Coarse -> 768

let create kernel ~style ~name =
  let layout = kernel.Mach.Kernel.machine.Machine.layout in
  let style_tag =
    match style with Fine_grained -> "fine" | Coarse -> "coarse"
  in
  let text =
    Machine.Layout.alloc layout
      ~name:(Printf.sprintf "objrt:%s:%s.text" style_tag name)
      ~kind:Machine.Layout.Code ~size:(text_bytes style)
  in
  let vtables =
    Machine.Layout.alloc layout
      ~name:(Printf.sprintf "objrt:%s:%s.vtables" style_tag name)
      ~kind:Machine.Layout.Data ~size:(16 * 1024)
  in
  {
    kernel;
    st = style;
    text;
    vtables;
    classes = [];
    vcall_count = 0;
    live = 0;
    object_bytes = 0;
  }

let style t = t.st

let define_class t ~name ?super () =
  let k =
    {
      k_name = name;
      k_super = super;
      k_method_bytes = default_method_bytes t.st;
      k_offset_seed = Hashtbl.hash name land 0xffff;
    }
  in
  t.classes <- k :: t.classes;
  k

let rec class_depth k =
  match k.k_super with None -> 1 | Some s -> 1 + class_depth s

let new_object t k =
  let state = header_bytes t.st + wrapper_state_bytes t.st in
  t.live <- t.live + 1;
  t.object_bytes <- t.object_bytes + state;
  (* constructor: runs the allocation path plus one vcall-shaped setup
     per inheritance level *)
  let cpu = t.kernel.Mach.Kernel.machine.Machine.cpu in
  Machine.Cpu.fetch cpu t.text ~offset:0 ~bytes:160;
  Machine.Cpu.store cpu
    ~addr:(t.vtables.Machine.Layout.base + 256)
    ~bytes:state;
  { o_class = k; o_live = true; o_state_bytes = state }

let delete_object t o =
  if o.o_live then begin
    o.o_live <- false;
    t.live <- t.live - 1;
    t.object_bytes <- t.object_bytes - o.o_state_bytes
  end

let method_offset t k slot =
  (* scatter method bodies through the framework text *)
  let span = t.text.Machine.Layout.size - 1024 in
  (k.k_offset_seed * 37 + slot * 193) * 61 mod span

(* Dispatch runs for every unit of framework work: a warm call
   allocates only what the cycle charges box.  A fine-grained step is a
   vtable pointer load, an indirect branch stall and the short body,
   then a super-chain delegation per inheritance level. *)
let rec fine_chain t cpu k slot =
  Machine.Cpu.load cpu
    ~addr:(t.vtables.Machine.Layout.base + (k.k_offset_seed mod 8192))
    ~bytes:8;
  Machine.Cpu.stall cpu 5;
  Machine.Cpu.fetch cpu t.text ~offset:(method_offset t k slot)
    ~bytes:(k.k_method_bytes + 32);
  match k.k_super with Some s -> fine_chain t cpu s (slot + 1) | None -> ()

let vcall t o ~slot =
  t.vcall_count <- t.vcall_count + 1;
  let cpu = t.kernel.Mach.Kernel.machine.Machine.cpu in
  match t.st with
  | Fine_grained -> fine_chain t cpu o.o_class slot
  | Coarse ->
      Machine.Cpu.fetch cpu t.text ~offset:(method_offset t o.o_class slot)
        ~bytes:o.o_class.k_method_bytes

let invoke t o ~work_units =
  match t.st with
  | Fine_grained ->
      for u = 1 to work_units do
        vcall t o ~slot:(u mod 16)
      done
  | Coarse ->
      let calls = Int.max 1 ((work_units + 7) / 8) in
      for u = 1 to calls do
        vcall t o ~slot:(u mod 4)
      done

let vcalls t = t.vcall_count
let live_objects t = t.live

let memory_footprint_bytes t =
  runtime_bytes t.st + t.object_bytes
  + (List.length t.classes
     * match t.st with Fine_grained -> 512 | Coarse -> 64)
