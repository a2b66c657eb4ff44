(* Deterministic, seeded fault injection.

   A plan is pure decision state: the IPC/RPC layers and the disk driver
   consult it at their hook points (a message about to be sent, a
   request about to be served, a write reaching the media) and apply
   whatever it decides — this module never touches ports, threads or
   the clock, so the same plan driven by the same sequence of events
   always produces the same faults.

   The plan is one table keyed by (site, action), where a site is a port
   or disk name: each entry holds its rate, the action it injects (with
   its parameter), how often it fired and its own random stream, so
   traffic at one site never moves another site's schedule.
   Determinism comes from a 48-bit linear congruential generator (the
   classic drand48 multiplier) rather than [Random], seeded per entry
   from a fixed hash of (seed, site, action), so replays are bit-exact
   across runs and independent of anything else in the process. *)

type action =
  | Kill_port          (* destroy the service port after answering *)
  | Crash_server       (* destroy the port and abandon the in-flight request *)
  | Wedge_server of int  (* live-but-stuck: hold this request for N cycles *)
  | Drop_message       (* lose the message in transit *)
  | Delay_message of int  (* hold the message for this many cycles *)
  | Power_cut          (* disk: freeze the media at this write *)
  | Torn_write         (* disk: only a prefix of this write lands *)
  | Bit_rot            (* disk: flip one bit of this write *)
  | Reorder            (* disk: hold this write past later ones *)

type message_decision = M_pass | M_drop | M_delay of int
type server_decision = S_continue | S_kill | S_crash | S_wedge of int

(* Disk decisions carry raw PRNG entropy; the device maps it into range
   (torn length, bit index, hold window) so the plan stays device-agnostic. *)
type disk_decision =
  | D_pass
  | D_power_cut
  | D_torn of int
  | D_bit_rot of int
  | D_reorder of int

(* An action's slot in the table.  Each hook owns a run of slots and
   tries its rated actions in slot order: requests kill, crash, wedge;
   sends drop, delay; disk writes power-cut, torn, bit-rot, reorder. *)
let slot = function
  | Kill_port -> 0
  | Crash_server -> 1
  | Wedge_server _ -> 2
  | Drop_message -> 3
  | Delay_message _ -> 4
  | Power_cut -> 5
  | Torn_write -> 6
  | Bit_rot -> 7
  | Reorder -> 8

let requests = (0, 2)
let sends = (3, 4)
let disk_writes = (5, 8)

let name = function
  | Kill_port -> "kill"
  | Crash_server -> "crash"
  | Wedge_server _ -> "wedge"
  | Drop_message -> "drop"
  | Delay_message _ -> "delay"
  | Power_cut -> "power-cut"
  | Torn_write -> "torn-write"
  | Bit_rot -> "bit-rot"
  | Reorder -> "reorder"

type entry = {
  mutable rate : (int * action) option;
      (* ppm and the action it injects; None follows the site-less rate *)
  mutable fired : int;  (* scripted and rated injections at this site *)
  mutable stream : int;  (* this entry's drand48 state *)
}

type t = {
  f_seed : int;
  f_table : (string * int, entry) Hashtbl.t;  (* (site, slot) *)
  f_any_site : (int * action) option array;  (* per slot: rate with no site *)
  f_seen : (string * int, int) Hashtbl.t;  (* (site, hook): events observed *)
  mutable f_rules : (string * int * action) list;  (* site, nth event, action *)
  mutable f_trace : (int * string * string) list;  (* newest first *)
  mutable f_events : int;
}

let create ?(seed = 1) () =
  {
    f_seed = seed;
    f_table = Hashtbl.create 8;
    f_any_site = Array.make 9 None;
    f_seen = Hashtbl.create 8;
    f_rules = [];
    f_trace = [];
    f_events = 0;
  }

(* drand48: state' = state * 0x5DEECE66D + 0xB mod 2^48 *)
let step state = (state * 0x5DEECE66D + 0xB) land 0xFFFF_FFFF_FFFF

let next e =
  e.stream <- step e.stream;
  e.stream

(* A fresh draw in [0, 1_000_000): compared against parts-per-million
   rates.  Uses the generator's high bits, which carry the entropy. *)
let draw_ppm e = next e lsr 17 mod 1_000_000

(* Entropy handed to the disk alongside a decision: positive 32 bits
   from the generator's high end. *)
let draw_raw e = next e lsr 16

let entry t ~site s =
  match Hashtbl.find_opt t.f_table (site, s) with
  | Some e -> e
  | None ->
      let stream = Hashtbl.hash (t.f_seed, site, s) land 0xFFFF_FFFF_FFFF in
      let e = { rate = None; fired = 0; stream } in
      Hashtbl.add t.f_table (site, s) e;
      e

let script t ~site ~n action = t.f_rules <- (site, n, action) :: t.f_rules

let set_rate t ?site ~ppm action =
  match site with
  | None -> t.f_any_site.(slot action) <- Some (ppm, action)
  | Some site -> (entry t ~site (slot action)).rate <- Some (ppm, action)

let rate t ~site s =
  match Hashtbl.find_opt t.f_table (site, s) with
  | Some { rate = Some r; _ } -> Some r
  | Some { rate = None; _ } | None -> t.f_any_site.(s)

(* The first rated action of the hook's slots [s..last] that its draw
   fires; each rated slot draws once, in order, until one fires. *)
let rec draw_rates t ~site s last =
  if s > last then None
  else
    match rate t ~site s with
    | Some (ppm, action) when ppm > 0 ->
        let e = entry t ~site s in
        if draw_ppm e < ppm then Some (e, action)
        else draw_rates t ~site (s + 1) last
    | Some _ | None -> draw_rates t ~site (s + 1) last

(* The action this event at [site] injects, if any: a rule scripted for
   the event's number at this hook first, else the hook's rates. *)
let fire t ~site (first, last) =
  let key = (site, first) in
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.f_seen key) in
  Hashtbl.replace t.f_seen key n;
  let scripted (s, at, action) =
    at = n && s = site && first <= slot action && slot action <= last
  in
  let fired =
    match List.find_opt scripted t.f_rules with
    | Some (_, _, action) -> Some (entry t ~site (slot action), action)
    | None -> draw_rates t ~site first last
  in
  Option.iter
    (fun (e, action) ->
      e.fired <- e.fired + 1;
      t.f_events <- t.f_events + 1;
      t.f_trace <- (t.f_events, site, name action) :: t.f_trace)
    fired;
  fired

let on_request t ~port =
  match fire t ~site:port requests with
  | Some (_, Kill_port) -> S_kill
  | Some (_, Crash_server) -> S_crash
  | Some (_, Wedge_server cycles) -> S_wedge cycles
  | Some _ | None -> S_continue

let on_send t ~port =
  match fire t ~site:port sends with
  | Some (_, Drop_message) -> M_drop
  | Some (_, Delay_message cycles) -> M_delay cycles
  | Some _ | None -> M_pass

let on_disk_write t ~disk =
  match fire t ~site:disk disk_writes with
  | Some (_, Power_cut) -> D_power_cut
  | Some (e, Torn_write) -> D_torn (draw_raw e)
  | Some (e, Bit_rot) -> D_bit_rot (draw_raw e)
  | Some (e, Reorder) -> D_reorder (draw_raw e)
  | Some _ | None -> D_pass

let injected t ~site action =
  match Hashtbl.find_opt t.f_table (site, slot action) with
  | Some e -> e.fired
  | None -> 0

let trace t = List.rev t.f_trace
