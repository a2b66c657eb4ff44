type t = {
  kernel : Mach.Kernel.t;
  fb : Machine.Framebuffer.t;
  mutable fill_count : int;
}

let start (kernel : Mach.Kernel.t) rm =
  let fb = kernel.Mach.Kernel.machine.Machine.framebuffer in
  let region = Machine.Framebuffer.region fb in
  match
    Resource_manager.request rm ~driver:"display"
      (Resource_manager.Io_range
         { base = region.Machine.Layout.base; len = region.Machine.Layout.size })
      ()
  with
  | Error e -> Error e
  | Ok (_ : Resource_manager.grant) -> Ok { kernel; fb; fill_count = 0 }

let fill t ~x ~y ~w ~h ~pixel =
  t.fill_count <- t.fill_count + 1;
  Mach.Trap.service t.kernel.Mach.Kernel.sys ();
  Machine.Framebuffer.fill_rect t.fb t.kernel.Mach.Kernel.machine.Machine.cpu
    ~x ~y ~w ~h ~pixel

let framebuffer t = t.fb
let fills t = t.fill_count
