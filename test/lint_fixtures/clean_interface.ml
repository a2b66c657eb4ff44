(* Known-clean fixture: interface completeness.
   Every sendable constructor has a handler, and the payload match
   carries a catch-all. *)

type payload += Fx_ping of int | Fx_pong of int

let client port =
  ignore (Ipc.send port (Fx_ping 1));
  ignore (Ipc.send port (Fx_pong 2))

let server port =
  match Ipc.receive port ~timeout:None with
  | Fx_ping n -> n
  | Fx_pong n -> n
  | _ ->
      (* unknown vocabulary bounces as a generic error *)
      0
