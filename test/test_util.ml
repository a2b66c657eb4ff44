(* Shared helpers for the test suites: boot a system, run bodies inside
   simulated threads, and collect results. *)

let pentium () = Machine.create Machine.Config.pentium_133
let ppc () = Machine.create Machine.Config.ppc604_133

let kernel_on ?(config = Machine.Config.pentium_133) () =
  Mach.Kernel.boot (Machine.create config)

(* Run [body] inside a fresh thread of a fresh task and drive the system
   to completion; returns the body's result.  Fails the test if the body
   never finished (deadlock). *)
let run_in_thread ?(name = "test") kernel body =
  let task = Mach.Kernel.task_create kernel ~name () in
  let result = ref None in
  ignore
    (Mach.Kernel.thread_spawn kernel task ~name (fun () ->
         result := Some (body ()))
      : Mach.Ktypes.thread);
  Mach.Kernel.run kernel;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail (name ^ ": thread body did not complete")

(* Spawn a body in an existing task. *)
let spawn kernel task name body =
  ignore (Mach.Kernel.thread_spawn kernel task ~name body : Mach.Ktypes.thread)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_fs_ok label = function
  | Ok v -> v
  | Error e -> Alcotest.fail (label ^ ": " ^ Fileserver.Fs_types.fs_error_to_string e)

let fs_error : Fileserver.Fs_types.fs_error Alcotest.testable =
  Alcotest.testable
    (fun ppf e ->
      Format.pp_print_string ppf (Fileserver.Fs_types.fs_error_to_string e))
    ( = )
