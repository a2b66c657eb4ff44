(* Deterministic, seeded fault injection.

   A plan is pure decision state: the IPC/RPC layers consult it at their
   hook points (a message about to be sent, a request about to be
   served) and apply whatever it decides — this module never touches
   ports, threads or the clock, so the same plan driven by the same
   sequence of events always produces the same faults.  Determinism
   comes from a 48-bit linear congruential generator (the classic
   drand48 multiplier) rather than [Random], so replays are bit-exact
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

type rule = {
  ru_port : string;
  ru_at : int;  (* fire on the Nth event observed on the port, 1-based *)
  ru_action : action;
  mutable ru_fired : bool;
}

type t = {
  f_seed : int;
  mutable f_state : int;
  mutable f_request_rules : rule list;  (* keyed on the request counter *)
  mutable f_send_rules : rule list;  (* keyed on the send counter *)
  mutable f_disk_rules : rule list;  (* keyed on the per-disk write counter *)
  mutable f_port_filter : string option;  (* rates apply only to this port *)
  mutable f_crash_ppm : int;
  mutable f_wedge_ppm : int;
  mutable f_wedge_cycles : int;
  mutable f_drop_ppm : int;
  mutable f_delay_ppm : int;
  mutable f_delay_cycles : int;
  mutable f_disk_filter : string option;  (* disk rates apply only here *)
  mutable f_power_cut_ppm : int;
  mutable f_torn_ppm : int;
  mutable f_bit_rot_ppm : int;
  mutable f_reorder_ppm : int;
  f_requests_seen : (string, int) Hashtbl.t;
  f_sends_seen : (string, int) Hashtbl.t;
  f_disk_seen : (string, int) Hashtbl.t;
  mutable f_crashes : int;
  mutable f_wedges : int;
  mutable f_power_cuts : int;
  mutable f_torn : int;
  mutable f_bit_rot : int;
  mutable f_reorders : int;
  mutable f_trace : (int * string * string) list;  (* newest first *)
  mutable f_events : int;
}

let create ?(seed = 1) () =
  {
    f_seed = seed;
    f_state = seed land 0xFFFF_FFFF_FFFF;
    f_request_rules = [];
    f_send_rules = [];
    f_disk_rules = [];
    f_port_filter = None;
    f_crash_ppm = 0;
    f_wedge_ppm = 0;
    f_wedge_cycles = 2_000_000;
    f_drop_ppm = 0;
    f_delay_ppm = 0;
    f_delay_cycles = 5_000;
    f_disk_filter = None;
    f_power_cut_ppm = 0;
    f_torn_ppm = 0;
    f_bit_rot_ppm = 0;
    f_reorder_ppm = 0;
    f_requests_seen = Hashtbl.create 8;
    f_sends_seen = Hashtbl.create 8;
    f_disk_seen = Hashtbl.create 8;
    f_crashes = 0;
    f_wedges = 0;
    f_power_cuts = 0;
    f_torn = 0;
    f_bit_rot = 0;
    f_reorders = 0;
    f_trace = [];
    f_events = 0;
  }

let seed t = t.f_seed

(* drand48: state' = state * 0x5DEECE66D + 0xB mod 2^48 *)
let next t =
  t.f_state <- (t.f_state * 0x5DEECE66D + 0xB) land 0xFFFF_FFFF_FFFF;
  t.f_state

(* A fresh draw in [0, 1_000_000): compared against parts-per-million
   rates.  Uses the generator's high bits, which carry the entropy. *)
let draw_ppm t = next t lsr 17 mod 1_000_000

let at_request t ~port ~n action =
  (match action with
  | Kill_port | Crash_server | Wedge_server _ -> ()
  | Drop_message | Delay_message _ ->
      invalid_arg "Fault.at_request: message actions belong to at_send"
  | Power_cut | Torn_write | Bit_rot | Reorder ->
      invalid_arg "Fault.at_request: disk actions belong to at_disk_write");
  t.f_request_rules <-
    { ru_port = port; ru_at = n; ru_action = action; ru_fired = false }
    :: t.f_request_rules

let at_send t ~port ~n action =
  (match action with
  | Drop_message | Delay_message _ -> ()
  | Kill_port | Crash_server | Wedge_server _ ->
      invalid_arg "Fault.at_send: server actions belong to at_request"
  | Power_cut | Torn_write | Bit_rot | Reorder ->
      invalid_arg "Fault.at_send: disk actions belong to at_disk_write");
  t.f_send_rules <-
    { ru_port = port; ru_at = n; ru_action = action; ru_fired = false }
    :: t.f_send_rules

let at_disk_write t ~disk ~n action =
  (match action with
  | Power_cut | Torn_write | Bit_rot | Reorder -> ()
  | Kill_port | Crash_server | Wedge_server _ | Drop_message
  | Delay_message _ ->
      invalid_arg "Fault.at_disk_write: only disk actions apply here");
  t.f_disk_rules <-
    { ru_port = disk; ru_at = n; ru_action = action; ru_fired = false }
    :: t.f_disk_rules

let set_rates t ?port ?crash_ppm ?wedge_ppm ?wedge_cycles ?drop_ppm ?delay_ppm
    ?delay_cycles () =
  t.f_port_filter <- port;
  Option.iter (fun v -> t.f_crash_ppm <- v) crash_ppm;
  Option.iter (fun v -> t.f_wedge_ppm <- v) wedge_ppm;
  Option.iter (fun v -> t.f_wedge_cycles <- v) wedge_cycles;
  Option.iter (fun v -> t.f_drop_ppm <- v) drop_ppm;
  Option.iter (fun v -> t.f_delay_ppm <- v) delay_ppm;
  Option.iter (fun v -> t.f_delay_cycles <- v) delay_cycles

let set_disk_rates t ?disk ?power_cut_ppm ?torn_ppm ?bit_rot_ppm ?reorder_ppm
    () =
  t.f_disk_filter <- disk;
  Option.iter (fun v -> t.f_power_cut_ppm <- v) power_cut_ppm;
  Option.iter (fun v -> t.f_torn_ppm <- v) torn_ppm;
  Option.iter (fun v -> t.f_bit_rot_ppm <- v) bit_rot_ppm;
  Option.iter (fun v -> t.f_reorder_ppm <- v) reorder_ppm

let bump table port =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt table port) in
  Hashtbl.replace table port n;
  n

let record t ~port what =
  t.f_events <- t.f_events + 1;
  t.f_trace <- (t.f_events, port, what) :: t.f_trace

let rates_apply t ~port =
  match t.f_port_filter with None -> true | Some p -> p = port

let fired_rule rules ~port ~n =
  List.find_opt
    (fun r -> (not r.ru_fired) && r.ru_port = port && r.ru_at = n)
    rules

let on_request t ~port =
  let n = bump t.f_requests_seen port in
  match fired_rule t.f_request_rules ~port ~n with
  | Some ({ ru_action = Kill_port; _ } as r) ->
      r.ru_fired <- true;
      record t ~port "kill";
      S_kill
  | Some ({ ru_action = Crash_server; _ } as r) ->
      r.ru_fired <- true;
      t.f_crashes <- t.f_crashes + 1;
      record t ~port "crash";
      S_crash
  | Some ({ ru_action = Wedge_server cycles; _ } as r) ->
      r.ru_fired <- true;
      t.f_wedges <- t.f_wedges + 1;
      record t ~port "wedge";
      S_wedge cycles
  | Some _ | None ->
      if
        t.f_crash_ppm > 0 && rates_apply t ~port
        && draw_ppm t < t.f_crash_ppm
      then begin
        t.f_crashes <- t.f_crashes + 1;
        record t ~port "crash";
        S_crash
      end
      else if
        t.f_wedge_ppm > 0 && rates_apply t ~port
        && draw_ppm t < t.f_wedge_ppm
      then begin
        t.f_wedges <- t.f_wedges + 1;
        record t ~port "wedge";
        S_wedge t.f_wedge_cycles
      end
      else S_continue

let on_send t ~port =
  let n = bump t.f_sends_seen port in
  match fired_rule t.f_send_rules ~port ~n with
  | Some ({ ru_action = Drop_message; _ } as r) ->
      r.ru_fired <- true;
      record t ~port "drop";
      M_drop
  | Some ({ ru_action = Delay_message cycles; _ } as r) ->
      r.ru_fired <- true;
      record t ~port "delay";
      M_delay cycles
  | Some _ | None ->
      if not (rates_apply t ~port) then M_pass
      else if t.f_drop_ppm > 0 && draw_ppm t < t.f_drop_ppm then begin
        record t ~port "drop";
        M_drop
      end
      else if t.f_delay_ppm > 0 && draw_ppm t < t.f_delay_ppm then begin
        record t ~port "delay";
        M_delay t.f_delay_cycles
      end
      else M_pass

(* Entropy handed to the disk alongside a decision: positive 32 bits
   from the generator's high end. *)
let draw_raw t = next t lsr 16

let disk_rates_apply t ~disk =
  match t.f_disk_filter with None -> true | Some d -> d = disk

let on_disk_write t ~disk =
  let n = bump t.f_disk_seen disk in
  match fired_rule t.f_disk_rules ~port:disk ~n with
  | Some ({ ru_action = Power_cut; _ } as r) ->
      r.ru_fired <- true;
      t.f_power_cuts <- t.f_power_cuts + 1;
      record t ~port:disk "power-cut";
      D_power_cut
  | Some ({ ru_action = Torn_write; _ } as r) ->
      r.ru_fired <- true;
      t.f_torn <- t.f_torn + 1;
      record t ~port:disk "torn-write";
      D_torn (draw_raw t)
  | Some ({ ru_action = Bit_rot; _ } as r) ->
      r.ru_fired <- true;
      t.f_bit_rot <- t.f_bit_rot + 1;
      record t ~port:disk "bit-rot";
      D_bit_rot (draw_raw t)
  | Some ({ ru_action = Reorder; _ } as r) ->
      r.ru_fired <- true;
      t.f_reorders <- t.f_reorders + 1;
      record t ~port:disk "reorder";
      D_reorder (draw_raw t)
  | Some _ | None ->
      if not (disk_rates_apply t ~disk) then D_pass
      else if t.f_power_cut_ppm > 0 && draw_ppm t < t.f_power_cut_ppm then begin
        t.f_power_cuts <- t.f_power_cuts + 1;
        record t ~port:disk "power-cut";
        D_power_cut
      end
      else if t.f_torn_ppm > 0 && draw_ppm t < t.f_torn_ppm then begin
        t.f_torn <- t.f_torn + 1;
        record t ~port:disk "torn-write";
        D_torn (draw_raw t)
      end
      else if t.f_bit_rot_ppm > 0 && draw_ppm t < t.f_bit_rot_ppm then begin
        t.f_bit_rot <- t.f_bit_rot + 1;
        record t ~port:disk "bit-rot";
        D_bit_rot (draw_raw t)
      end
      else if t.f_reorder_ppm > 0 && draw_ppm t < t.f_reorder_ppm then begin
        t.f_reorders <- t.f_reorders + 1;
        record t ~port:disk "reorder";
        D_reorder (draw_raw t)
      end
      else D_pass

let injected_crashes t = t.f_crashes
let injected_wedges t = t.f_wedges
let injected_torn_writes t = t.f_torn
let injected_reorders t = t.f_reorders

let injected_disk_faults t =
  t.f_power_cuts + t.f_torn + t.f_bit_rot + t.f_reorders

let trace t = List.rev t.f_trace
