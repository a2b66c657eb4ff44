type kind = Code | Data | Device

type region = { name : string; base : int; size : int; kind : kind }

type t = {
  page_size : int;
  memory_bytes : int;
  mutable next : int;
  mutable device_next : int;
  mutable allocated : region list;  (* reverse allocation order *)
}

let create (c : Config.t) =
  {
    page_size = c.page_size;
    memory_bytes = c.memory_bytes;
    next = c.page_size;  (* leave page 0 unmapped, as real systems do *)
    device_next = c.memory_bytes;
    allocated = [];
  }

let round_up t n = (n + t.page_size - 1) / t.page_size * t.page_size

let overlaps a b = a.base < b.base + b.size && b.base < a.base + a.size

let alloc t ~name ~kind ~size =
  let size = round_up t (Int.max size 1) in
  match kind with
  | Device ->
      let r = { name; base = t.device_next; size; kind } in
      t.device_next <- t.device_next + size;
      t.allocated <- r :: t.allocated;
      r
  | Code | Data ->
      if t.next + size > t.memory_bytes then
        failwith
          (Printf.sprintf "Layout.alloc: out of physical memory for %S (%d + %d > %d)"
             name t.next size t.memory_bytes);
      let r = { name; base = t.next; size; kind } in
      t.next <- t.next + size;
      t.allocated <- r :: t.allocated;
      r

let alloc_at t ~name ~kind ~base ~size =
  let size = round_up t (Int.max size 1) in
  let r = { name; base; size; kind } in
  if List.exists (overlaps r) t.allocated then
    invalid_arg
      (Printf.sprintf "Layout.alloc_at: %S overlaps an existing region" name);
  t.allocated <- r :: t.allocated;
  if kind <> Device && base + size > t.next && base < t.memory_bytes then
    t.next <- Int.max t.next (base + size);
  r

let used_bytes t = t.next
let regions t = List.rev t.allocated

let find t name =
  List.find_opt (fun r -> String.equal r.name name) t.allocated

let end_of r = r.base + r.size

let pp_region ppf r =
  let kind = match r.kind with Code -> "code" | Data -> "data" | Device -> "dev " in
  Format.fprintf ppf "%s %-28s 0x%08x..0x%08x (%6d B)" kind r.name r.base
    (r.base + r.size) r.size
