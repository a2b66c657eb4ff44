(** The Microkernel Services program loader.

    Loads (synthetic) ELF images — programs and shared libraries — into
    address spaces.  Follows the design trajectory the paper describes:
    one load-module format per address space originally, later support
    for mixing personality-neutral and personality-specific code, shared
    libraries with {e address coercion} (one text region, the same
    address everywhere, restricted symbol-resolution semantics) versus
    SVR4-style per-task binding. *)

open Mach.Ktypes

type format =
  | Elf_svr4  (** full SVR4 symbol resolution at load time *)
  | Elf_coerced
      (** coerced shared library: same address in every space, restricted
          resolution — much cheaper to attach *)

type image = {
  img_name : string;
  img_format : format;
  img_text_bytes : int;
  img_data_bytes : int;
  img_symbols : int;  (** exported symbols: drives resolution cost *)
  img_needs : string list;  (** shared-library dependencies *)
}

type t

val create : Mach.Kernel.t -> Runtime.t -> t

val register : t -> image -> unit
(** Add an image to the (simulated) file-system-visible set.
    @raise Invalid_argument on duplicate names. *)

val registered : t -> string list

val load_library : t -> task -> string -> (Machine.Layout.region, string) result
(** Attach a shared library (and, recursively, its needs) to the task.
    The library text is allocated once, system-wide; SVR4 images charge
    per-symbol resolution on every attach, coerced images only on the
    first. *)

val load_program :
  t -> task -> string -> entry:(unit -> unit) -> (thread, string) result
(** Load a program image into the task: attach its needs, charge the
    segment setup, and start a thread at [entry]. *)

val libraries_of : task -> string list
