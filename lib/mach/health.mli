(** Health traps: per-server progress state for heartbeat monitoring.

    A supervised server exposes a {!beat} — stamped by its RPC serve
    loop ([Rpc.serve ~beat]) — and a dedicated health port whose thread
    answers {!H_ping} with {!H_pong} straight from the beat.  The
    supervisor's deadline-bounded ping then distinguishes the three
    failure shapes: a dead port (crash — the dead-name watch fires), a
    ping timeout (whole task wedged), and a pong whose [hp_busy_since]
    is stale (main loop wedged mid-request: the per-request watchdog). *)

open Ktypes

type beat = {
  mutable hb_served : int;
  mutable hb_busy : int array;  (* one stamp per serve thread, -1 when idle *)
}

val beat : unit -> beat

val join : beat -> int
(** A serve loop's slot in [hb_busy], taken once when the loop starts. *)

val busy_since : beat -> int
(** The oldest busy stamp over every serve thread; -1 when all are idle.
    This is what a pong reports, so one wedged thread stays visible
    while its siblings keep finishing requests. *)

type payload +=
  | H_ping
  | H_pong of { hp_served : int; hp_busy_since : int }

val ping_msg : unit -> message_builder

val handler : beat -> message -> message_builder
(** The heartbeat handler a health thread serves — answers from the beat
    without ever blocking ([@machlint.no_block]). *)
