(* Health traps: the per-server progress state a reincarnation service
   pings.

   A [beat] is the words the server's RPC loops stamp for free:
   requests completed, and for each serve thread when its request in
   hand began (-1 when idle).  A dedicated health thread serves pings
   off a separate health port and answers from the beat alone, so it
   stays responsive while the serve threads are wedged — and the pong's
   [busy_since], the oldest stamp, is exactly what a per-request
   watchdog needs to see the wedge.  One stamp per thread matters: with
   a shared word, a sibling finishing its request would reset the stamp
   and hide a wedged thread from the watchdog.  A dead health port
   (or a ping timeout) means the whole task is gone, which the
   supervisor's dead-name watch already covers. *)

open Ktypes

type beat = {
  mutable hb_served : int;  (* requests completed by the serve loops *)
  mutable hb_busy : int array;
      (* per serve thread: global-cycle stamp of the request in hand;
         -1 when that thread is idle *)
}

let beat () = { hb_served = 0; hb_busy = [||] }

(* A serve loop joins the beat once, at its start, and stamps its own
   slot from then on. *)
let join b =
  let slot = Array.length b.hb_busy in
  b.hb_busy <- Array.append b.hb_busy [| -1 |];
  slot

(* The oldest request in hand over every serve thread; -1 when all are
   idle. *)
let busy_since b =
  Array.fold_left
    (fun acc s -> if s >= 0 && (acc < 0 || s < acc) then s else acc)
    (-1) b.hb_busy

type payload +=
  | H_ping
  | H_pong of { hp_served : int; hp_busy_since : int }

let op_ping = 0x6a

let ping_msg () = simple_message ~op:op_ping ~inline_bytes:16 ~payload:H_ping ()

(* The heartbeat handler: reads the beat, builds the pong.  It runs on
   the health thread between a dequeue and a reply and must never park
   that thread — a blocking health handler is indistinguishable from the
   wedge it exists to detect. *)
let[@machlint.no_block] handler (b : beat) (req : message) =
  match req.msg_payload with
  | H_ping ->
      simple_message ~op:op_ping ~inline_bytes:16
        ~payload:
          (H_pong { hp_served = b.hb_served; hp_busy_since = busy_since b })
        ()
  | _ -> simple_message ~payload:(P_error Kern_invalid_argument) ()
