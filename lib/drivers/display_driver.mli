(** The display driver: owns the frame-buffer aperture and exposes
    drawing entry points.

    Applications in both systems drive the screen buffer directly from
    user-level shared libraries (the paper's graphics workloads), so this
    driver's job is aperture mapping, mode bookkeeping and accelerated
    fills — the rare kernel-mediated operations. *)

type t

val start :
  Mach.Kernel.t -> Resource_manager.t -> (t, string) result

val fill : t -> x:int -> y:int -> w:int -> h:int -> pixel:char -> unit
(** Driver-mediated fill (charges a trap plus the blit). *)

val framebuffer : t -> Machine.Framebuffer.t
val fills : t -> int
