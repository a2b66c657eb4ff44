type t = {
  cpu : Cpu.t;
  region : Layout.region;
  width : int;
  height : int;
  pixels : Bytes.t;
  mutable written : int;
}

let create cpu layout ~width ~height =
  let region =
    Layout.alloc layout ~name:"framebuffer" ~kind:Layout.Device
      ~size:(width * height)
  in
  { cpu; region; width; height; pixels = Bytes.make (width * height) '\000'; written = 0 }

let region t = t.region
let width t = t.width

let check t ~x ~y =
  if x < 0 || y < 0 || x >= t.width || y >= t.height then
    invalid_arg (Printf.sprintf "Framebuffer: (%d,%d) out of bounds" x y)

let store_span t ~x ~y ~len =
  let addr = t.region.Layout.base + (y * t.width) + x in
  Cpu.execute t.cpu [ Footprint.Uncached_write { addr; bytes = len } ]

let fill_rect t ~x ~y ~w ~h ~pixel =
  if w > 0 && h > 0 then begin
    check t ~x ~y;
    check t ~x:(x + w - 1) ~y:(y + h - 1);
    for row = y to y + h - 1 do
      store_span t ~x ~y:row ~len:w;
      Bytes.fill t.pixels ((row * t.width) + x) w pixel
    done;
    t.written <- t.written + (w * h)
  end

let blit_row t ~x ~y s =
  let len = String.length s in
  if len > 0 then begin
    check t ~x ~y;
    check t ~x:(x + len - 1) ~y;
    store_span t ~x ~y ~len;
    Bytes.blit_string s 0 t.pixels ((y * t.width) + x) len;
    t.written <- t.written + len
  end

let pixel t ~x ~y =
  check t ~x ~y;
  Bytes.get t.pixels ((y * t.width) + x)

let pixels_written t = t.written
