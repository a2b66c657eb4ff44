(* Shared retry-backoff schedule, and the one client retry loop on it.

   The retry loop below — both [Ipc.call_retry] and [Rpc.call_retry] —
   and the supervisor's restart pacing used to grow their wait by
   unbounded doubling, and every retrier doubled in lockstep: when a
   server died under load, all of its clients slept the same schedule
   and stampeded it the instant it came back.  A policy here caps the
   exponential and perturbs each waiter's schedule with deterministic
   jitter from the same drand48 generator the fault planner uses, keyed
   on a caller-supplied seed (thread id, entry index), so replays stay
   bit-exact while distinct waiters spread out. *)

open Ktypes

type policy = { bo_base : int; bo_cap : int; bo_seed : int }

let policy ?(seed = 0) ~base () =
  let base = Int.max 1 base in
  (* the cap scales with the base — six doublings — so a caller sizing
     its base to span a known outage keeps its reach, while the old
     unbounded doubling (which could sleep past any recovery) is gone *)
  { bo_base = base; bo_cap = base * 64; bo_seed = seed }

(* Capped exponential: base * 2^(attempt-1), saturating at the cap
   without ever overflowing on large attempt numbers. *)
let raw_delay p ~attempt =
  let rec go n acc =
    if n <= 1 || acc >= p.bo_cap then acc else go (n - 1) (acc * 2)
  in
  Int.min p.bo_cap (go (Int.max 1 attempt) p.bo_base)

let delay p ~attempt =
  let wait = raw_delay p ~attempt in
  (* jitter in [0, wait/4): two generator steps mix seed and attempt so
     consecutive attempts of one waiter decorrelate too *)
  let span = Int.max 1 (wait / 4) in
  let s = Fault.step (Fault.step ((p.bo_seed * 31) + attempt)) in
  wait + (s lsr 17) mod span

(* The client retry loop: only the call differs between Ipc and Rpc. *)
let retry (sys : Sched.t) ?(attempts = 4) ?(deadline = 100_000)
    ?(backoff = 1_000) ~resolve call =
  let th = Sched.self () in
  let p = policy ~seed:th.tid ~base:backoff () in
  let rec go n last_err =
    if n > attempts then Error last_err
    else begin
      if n > 1 then begin
        sys.retry_attempts <- sys.retry_attempts + 1;
        (* user-level retry stub: back off, then re-resolve the name *)
        Ktext.exec_in sys.ktext th.t_task.text ~offset:0x1c0 ~bytes:96;
        ignore (Clock.sleep_for sys ~cycles:(delay p ~attempt:(n - 1)))
      end;
      match resolve () with
      | None -> go (n + 1) Kern_invalid_name
      | Some port -> (
          match call port ~deadline with
          | Ok reply -> Ok reply
          | Error ((Kern_port_dead | Kern_timed_out | Kern_aborted) as err) ->
              go (n + 1) err
          | Error err -> Error err)
    end
  in
  go 1 Kern_port_dead
