(* Known-bad fixture: interface completeness.
   A payload constructor that is sent but never handled, and a payload
   match without a catch-all. *)

type payload += Fx_ping of int | Fx_pong of int

let client port =
  (* Fx_ping is really sendable... *)
  ignore (Ipc.send port (Fx_ping 1))

let server port =
  (* ...but the only handler matches Fx_pong, with no catch-all: an
     Fx_ping (or any fault-injected message) raises Match_failure *)
  match Ipc.receive port ~timeout:None with
  | Fx_pong n -> n
