type resource =
  | Irq_line of int
  | Io_range of { base : int; len : int }
  | Dma_channel of int

type holding = {
  h_driver : string;
  h_resource : resource;
  h_on_yield : unit -> bool;
  mutable h_live : bool;
}

type grant = holding

type t = {
  kernel : Mach.Kernel.t;
  mutable holdings : holding list;
  mutable yields : int;
  mutable grants : int;
}

let create kernel = { kernel; holdings = []; yields = 0; grants = 0 }

let overlaps a b =
  match (a, b) with
  | Irq_line x, Irq_line y -> x = y
  | Dma_channel x, Dma_channel y -> x = y
  | Io_range x, Io_range y -> x.base < y.base + y.len && y.base < x.base + x.len
  | (Irq_line _ | Io_range _ | Dma_channel _), _ -> false

let charge t =
  Mach.Ktext.exec t.kernel.Mach.Kernel.ktext [ Mach.Ktext.cap_translate ]

let resource_to_string = function
  | Irq_line n -> Printf.sprintf "irq:%d" n
  | Io_range { base; len } -> Printf.sprintf "io:0x%x+%d" base len
  | Dma_channel n -> Printf.sprintf "dma:%d" n

let request t ~driver resource ?(on_yield = fun () -> false) () =
  charge t;
  let conflicting =
    List.filter
      (fun h -> h.h_live && overlaps h.h_resource resource)
      t.holdings
  in
  let still_held =
    List.filter
      (fun h ->
        (* ask the holder to yield *)
        t.yields <- t.yields + 1;
        if h.h_on_yield () then begin
          h.h_live <- false;
          false
        end
        else true)
      conflicting
  in
  match still_held with
  | h :: _ ->
      Error
        (Printf.sprintf "%s held by %s (refused to yield)"
           (resource_to_string resource)
           h.h_driver)
  | [] ->
      let g =
        { h_driver = driver; h_resource = resource; h_on_yield = on_yield;
          h_live = true }
      in
      t.holdings <- g :: t.holdings;
      t.grants <- t.grants + 1;
      Ok g

let release t g =
  g.h_live <- false;
  t.holdings <- List.filter (fun h -> h != g) t.holdings

let holder t resource =
  match
    List.find_opt
      (fun h -> h.h_live && overlaps h.h_resource resource)
      t.holdings
  with
  | Some h -> Some h.h_driver
  | None -> None

let yields_requested t = t.yields
let grants_issued t = t.grants
