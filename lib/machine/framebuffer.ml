type t = {
  region : Layout.region;
  width : int;
  height : int;
  mutable pixels : Bytes.t;  (* [Bytes.empty] until the first store *)
  mutable written : int;
}

let create layout ~width ~height =
  let region =
    Layout.alloc layout ~name:"framebuffer" ~kind:Layout.Device
      ~size:(width * height)
  in
  { region; width; height; pixels = Bytes.empty; written = 0 }

let region t = t.region
let width t = t.width

let check t ~x ~y =
  if x < 0 || y < 0 || x >= t.width || y >= t.height then
    invalid_arg (Printf.sprintf "Framebuffer: (%d,%d) out of bounds" x y)

let store_span t cpu ~x ~y ~len =
  let addr = t.region.Layout.base + (y * t.width) + x in
  Cpu.uncached_write cpu ~addr ~bytes:len

(* the pixel array to record a store in, allocated on the first one *)
let stored t =
  if Bytes.length t.pixels = 0 then
    t.pixels <- Bytes.make (t.width * t.height) '\000';
  t.pixels

let fill_rect t cpu ~x ~y ~w ~h ~pixel =
  if w > 0 && h > 0 then begin
    check t ~x ~y;
    check t ~x:(x + w - 1) ~y:(y + h - 1);
    for row = y to y + h - 1 do
      store_span t cpu ~x ~y:row ~len:w;
      Bytes.fill (stored t) ((row * t.width) + x) w pixel
    done;
    t.written <- t.written + (w * h)
  end

let blit_row t cpu ~x ~y s =
  let len = String.length s in
  if len > 0 then begin
    check t ~x ~y;
    check t ~x:(x + len - 1) ~y;
    store_span t cpu ~x ~y ~len;
    Bytes.blit_string s 0 (stored t) ((y * t.width) + x) len;
    t.written <- t.written + len
  end

let pixel t ~x ~y =
  check t ~x ~y;
  if Bytes.length t.pixels = 0 then '\000'
  else Bytes.get t.pixels ((y * t.width) + x)

let pixels_written t = t.written
