open Mach.Ktypes

type format = Elf_svr4 | Elf_coerced

type image = {
  img_name : string;
  img_format : format;
  img_text_bytes : int;
  img_data_bytes : int;
  img_symbols : int;
  img_needs : string list;
}

type t = {
  kernel : Mach.Kernel.t;
  runtime : Runtime.t;
  text : Machine.Layout.region;  (* the loader's own code *)
  mutable images : (string * image) list;
  mutable lib_regions : (string * Machine.Layout.region) list;
}

let create (kernel : Mach.Kernel.t) runtime =
  let layout = kernel.Mach.Kernel.machine.Machine.layout in
  let text =
    match Machine.Layout.find layout "loader.text" with
    | Some r -> r
    | None ->
        Machine.Layout.alloc layout ~name:"loader.text"
          ~kind:Machine.Layout.Code ~size:(16 * 1024)
  in
  { kernel; runtime; text; images = []; lib_regions = [] }

let register t image =
  if List.mem_assoc image.img_name t.images then
    invalid_arg (Printf.sprintf "Loader.register: duplicate image %S" image.img_name);
  t.images <- (image.img_name, image) :: t.images

let registered t = List.sort compare (List.map fst t.images)

let charge t ~offset ~bytes =
  Mach.Ktext.exec_in t.kernel.Mach.Kernel.ktext t.text ~offset ~bytes

(* header parse + section setup *)
let charge_open t = charge t ~offset:0x100 ~bytes:512

(* one relocation/lookup per symbol *)
let charge_symbols t n =
  for _ = 1 to n do
    charge t ~offset:0x500 ~bytes:96
  done

let region_for_library t image =
  match List.assoc_opt image.img_name t.lib_regions with
  | Some r -> (r, false)
  | None ->
      let layout = t.kernel.Mach.Kernel.machine.Machine.layout in
      let r =
        Machine.Layout.alloc layout
          ~name:("lib:" ^ image.img_name)
          ~kind:Machine.Layout.Code ~size:image.img_text_bytes
      in
      t.lib_regions <- (image.img_name, r) :: t.lib_regions;
      (r, true)

let rec load_library t task name =
  match List.assoc_opt name t.images with
  | None -> Error (Printf.sprintf "no such image %S" name)
  | Some image ->
      if List.mem_assoc name task.libraries then
        Ok (List.assoc name task.libraries)
      else begin
        charge_open t;
        let rec load_needs = function
          | [] -> Ok ()
          | need :: rest -> (
              match load_library t task need with
              | Ok (_ : Machine.Layout.region) -> load_needs rest
              | Error e -> Error e)
        in
        match load_needs image.img_needs with
        | Error e -> Error e
        | Ok () ->
            let region, fresh = region_for_library t image in
            (match image.img_format with
            | Elf_svr4 ->
                (* full resolution against this task's bindings *)
                charge_symbols t image.img_symbols
            | Elf_coerced ->
                (* coerced: resolved once, when first materialised *)
                if fresh then charge_symbols t (image.img_symbols / 4));
            task.libraries <- (name, region) :: task.libraries;
            Ok region
      end

let load_program t task name ~entry =
  match List.assoc_opt name t.images with
  | None -> Error (Printf.sprintf "no such image %S" name)
  | Some image ->
      charge_open t;
      let rec load_needs = function
        | [] -> Ok ()
        | need :: rest -> (
            match load_library t task need with
            | Ok (_ : Machine.Layout.region) -> load_needs rest
            | Error e -> Error e)
      in
      (match load_needs image.img_needs with
      | Error e -> Error e
      | Ok () ->
          charge_symbols t image.img_symbols;
          (* the program's data segment: lazy anonymous memory *)
          if image.img_data_bytes > 0 then
            ignore
              (Mach.Vm.allocate t.kernel.Mach.Kernel.sys task
                 ~bytes:image.img_data_bytes ()
                : int);
          Ok
            (Mach.Kernel.thread_spawn t.kernel task
               ~name:(name ^ ".main") entry))

let libraries_of task = List.sort compare (List.map fst task.libraries)
