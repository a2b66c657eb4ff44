(* Machcheck: rights / deadlock / buffer-lifetime shadow analysis.

   Pure host-side bookkeeping keyed on (space, id) integers so the mach
   library can depend on this one without a cycle.  See check.mli for
   the model. *)

type right = R_receive | R_send | R_send_once

let right_rank = function R_receive -> 3 | R_send -> 2 | R_send_once -> 1

let right_name = function
  | R_receive -> "receive"
  | R_send -> "send"
  | R_send_once -> "send-once"

type finding = { f_checker : string; f_kind : string; f_detail : string }

type report = { counts : (string * int) list; findings : finding list }

(* One shadow right entry: task [task] in space [space] holds [ce_refs]
   references of [ce_right] to port [port]. *)
type centry = {
  mutable ce_right : right;
  mutable ce_refs : int;
  ce_tname : string;
  ce_pname : string;
}

type blocked = {
  b_tname : string;
  b_rdesc : string;
  mutable b_holders : int list;
  b_cpu : int;  (* CPU the thread blocked on; -1 = unknown/uniprocessor *)
  mutable b_wake_inflight : bool;
      (* a cross-CPU wake message is in flight: the thread is about to
         run, so it must not count as a blocked node in cycle search *)
}

(* One finished hold of a lock, in simulated cycles [from, until). *)
type lock_hold = {
  lh_tid : int;
  lh_cpu : int;
  lh_exclusive : bool;
  lh_from : int;
  lh_until : int;
}

(* A lock's most recent holds; [lr_next] is the slot the next one takes. *)
type lock_ring = { lr_holds : lock_hold option array; mutable lr_next : int }

type t = {
  mutable spaces : int;
  (* rights: (space, task, port) -> entry; dead ports as (space, port) *)
  rights : (int * int * int, centry) Hashtbl.t;
  dead_ports : (int * int, unit) Hashtbl.t;
  mutable transitions : int;
  mutable teardown_residual : int;
  (* deadlock: (space, tid) -> blocked *)
  blocked : (int * int, blocked) Hashtbl.t;
  seen_cycles : (string, unit) Hashtbl.t;
  mutable blocks_tracked : int;
  (* buffers: (space, addr) -> bytes live; retired set for UAR detection *)
  buf_live : (int * int, int) Hashtbl.t;
  buf_retired : (int * int, unit) Hashtbl.t;
  mutable buf_shadowed : int;
  (* remap ownership: (space, task) -> ranges the task has moved out and
     no longer owns; (space, page addr) -> pinned flag for cache pages
     currently mapped out to another task *)
  moved_out : (int * int, (int * int * string) list ref) Hashtbl.t;
  mapped_out : (int * int, bool) Hashtbl.t;
  mutable remap_moves : int;
  (* findings, newest first; the report counts them by kind *)
  mutable recorded : finding list;
  (* crash consistency: points enumerated, recovery invariant breaks *)
  mutable crash_points : int;
  (* vnode lifecycle: (space, mount, file) -> shadow refcount; reclaimed
     set for use-after-reclaim; (space, mount, dir, name) -> file for
     positive name-cache entries *)
  vn_refs : (int * int * int, int) Hashtbl.t;
  vn_reclaimed : (int * int * int, unit) Hashtbl.t;
  nc_entries : (int * int * int * string, int) Hashtbl.t;
  mutable vnodes_shadowed : int;
  mutable ncache_shadowed : int;
  (* netisr shard discipline: (space, socket uid) -> home shard *)
  net_homes : (int * int, int) Hashtbl.t;
  mutable net_sockets : int;
  mutable net_touches : int;
  (* reincarnation: (space, socket uid) -> home shard for state that a
     killed shard held and its rebirth must restore *)
  reinc_expected : (int * int, int) Hashtbl.t;
  mutable reinc_kills : int;
  mutable reinc_reboots : int;
  (* lock holds: (space, lock) -> its most recent holds, newest first *)
  lock_holds : (int * string, lock_ring) Hashtbl.t;
  mutable holds_checked : int;
}

let create () =
  {
    spaces = 0;
    rights = Hashtbl.create 64;
    dead_ports = Hashtbl.create 64;
    transitions = 0;
    teardown_residual = 0;
    blocked = Hashtbl.create 32;
    seen_cycles = Hashtbl.create 8;
    blocks_tracked = 0;
    buf_live = Hashtbl.create 64;
    buf_retired = Hashtbl.create 64;
    buf_shadowed = 0;
    moved_out = Hashtbl.create 16;
    mapped_out = Hashtbl.create 32;
    remap_moves = 0;
    recorded = [];
    crash_points = 0;
    vn_refs = Hashtbl.create 64;
    vn_reclaimed = Hashtbl.create 64;
    nc_entries = Hashtbl.create 64;
    vnodes_shadowed = 0;
    ncache_shadowed = 0;
    net_homes = Hashtbl.create 64;
    net_sockets = 0;
    net_touches = 0;
    reinc_expected = Hashtbl.create 64;
    reinc_kills = 0;
    reinc_reboots = 0;
    lock_holds = Hashtbl.create 8;
    holds_checked = 0;
  }

(* A sweep boots one system per point, in sequence: the lock histories
   of earlier systems are done with, and kept they would only load the
   host's garbage collector. *)
let new_space t =
  t.spaces <- t.spaces + 1;
  Hashtbl.reset t.lock_holds;
  t.spaces

let g_installed : t option ref = ref None
let install t = g_installed := Some t
let uninstall () = g_installed := None
let installed () = !g_installed

let record t ~checker ~kind detail =
  t.recorded <- { f_checker = checker; f_kind = kind; f_detail = detail }
                :: t.recorded

(* --- rights sanitizer --------------------------------------------------- *)

let right_allocated t ~space ~task ~tname ~port ~pname =
  t.transitions <- t.transitions + 1;
  Hashtbl.replace t.rights (space, task, port)
    { ce_right = R_receive; ce_refs = 1; ce_tname = tname; ce_pname = pname }

let right_inserted t ~space ~task ~tname ~port ~pname ~right ~now =
  t.transitions <- t.transitions + 1;
  match Hashtbl.find_opt t.rights (space, task, port) with
  | None ->
      Hashtbl.replace t.rights (space, task, port)
        { ce_right = now; ce_refs = 1; ce_tname = tname; ce_pname = pname }
  | Some e ->
      e.ce_refs <- e.ce_refs + 1;
      if right_rank now < right_rank e.ce_right then
        record t ~checker:"rights" ~kind:"downgrade"
          (Printf.sprintf
             "task %s: inserting %s over held %s right to port %s \
              weakened the capability"
             tname (right_name right) (right_name e.ce_right) pname);
      e.ce_right <- now

let right_deallocated t ~space ~task ~port =
  t.transitions <- t.transitions + 1;
  match Hashtbl.find_opt t.rights (space, task, port) with
  | None ->
      record t ~checker:"rights" ~kind:"double-free"
        (Printf.sprintf
           "task t%d deallocated a right to port p%d the shadow no longer \
            holds" task port)
  | Some e ->
      e.ce_refs <- e.ce_refs - 1;
      if e.ce_refs <= 0 then Hashtbl.remove t.rights (space, task, port)

let dealloc_missing t ~space:_ ~task:_ ~tname ~name =
  record t ~checker:"rights" ~kind:"double-free"
    (Printf.sprintf
       "task %s deallocated name %d, which its port space does not hold"
       tname name)

let right_moved t ~space ~from_task ~from_name:_ ~to_task ~to_name ~port
    ~pname ~right ~now =
  right_deallocated t ~space ~task:from_task ~port;
  (* the move's dealloc half is implied, not a user transition *)
  (match Hashtbl.find_opt t.rights (space, to_task, port) with
  | Some _ ->
      right_inserted t ~space ~task:to_task ~tname:to_name ~port ~pname ~right
        ~now
  | None ->
      t.transitions <- t.transitions + 1;
      Hashtbl.replace t.rights (space, to_task, port)
        { ce_right = now; ce_refs = 1; ce_tname = to_name; ce_pname = pname })

let port_destroyed t ~space ~port =
  t.transitions <- t.transitions + 1;
  Hashtbl.replace t.dead_ports (space, port) ()

let task_teardown t ~space ~task ~tname:_ =
  let keys =
    Hashtbl.fold
      (fun ((sp, tk, _) as k) _ acc -> if sp = space && tk = task then k :: acc else acc)
      t.rights []
  in
  List.iter (Hashtbl.remove t.rights) keys;
  let n = List.length keys in
  t.teardown_residual <- t.teardown_residual + n;
  n

let live_rights t ~space ~task =
  Hashtbl.fold
    (fun (sp, tk, _) _ acc -> if sp = space && tk = task then acc + 1 else acc)
    t.rights 0

let dead_rights t ~space ~task =
  Hashtbl.fold
    (fun (sp, tk, p) _ acc ->
      if sp = space && tk = task && Hashtbl.mem t.dead_ports (space, p) then
        acc + 1
      else acc)
    t.rights 0

(* --- deadlock detector -------------------------------------------------- *)

let successors t ~space tid =
  match Hashtbl.find_opt t.blocked (space, tid) with
  | None -> []
  (* a wake message is already racing towards this thread: it is not
     really stuck, so waits through it cannot close a cycle *)
  | Some b when b.b_wake_inflight -> []
  | Some b -> b.b_holders

(* DFS from [start]; returns the cycle path [start; ...; last] where
   [last] waits (transitively) back on [start]. *)
let find_cycle t ~space start =
  let visited = Hashtbl.create 8 in
  let rec go tid path =
    if Hashtbl.mem visited tid then None
    else begin
      Hashtbl.add visited tid ();
      let path = tid :: path in
      let succs = successors t ~space tid in
      if List.mem start succs then Some (List.rev path)
      else
        List.fold_left
          (fun acc s -> match acc with Some _ -> acc | None -> go s path)
          None succs
    end
  in
  go start []

let describe_cycle t ~space path =
  let leg tid =
    match Hashtbl.find_opt t.blocked (space, tid) with
    | Some b -> Printf.sprintf "t%d(%s) waits on %s" tid b.b_tname b.b_rdesc
    | None -> Printf.sprintf "t%d" tid
  in
  let base =
    String.concat " -> " (List.map leg path)
    ^ Printf.sprintf " -> back to t%d" (List.hd path)
  in
  (* a cycle whose waiters blocked on different CPUs is a cross-CPU
     deadlock: flag it, naming the CPUs involved *)
  let cpus =
    List.sort_uniq compare
      (List.filter_map
         (fun tid ->
           match Hashtbl.find_opt t.blocked (space, tid) with
           | Some b when b.b_cpu >= 0 -> Some b.b_cpu
           | _ -> None)
         path)
  in
  match cpus with
  | _ :: _ :: _ ->
      base
      ^ Printf.sprintf " [cross-CPU: cpus %s]"
          (String.concat "," (List.map string_of_int cpus))
  | _ -> base

let blocked_on t ~space ~tid ~tname ~cpu ~rdesc ~holders =
  t.blocks_tracked <- t.blocks_tracked + 1;
  Hashtbl.replace t.blocked (space, tid)
    {
      b_tname = tname;
      b_rdesc = rdesc;
      b_holders = holders;
      b_cpu = cpu;
      b_wake_inflight = false;
    };
  match find_cycle t ~space tid with
  | None -> ()
  | Some path ->
      let key =
        String.concat ","
          (List.map string_of_int (List.sort compare path))
        ^ Printf.sprintf "@%d" space
      in
      if not (Hashtbl.mem t.seen_cycles key) then begin
        Hashtbl.add t.seen_cycles key ();
        record t ~checker:"deadlock" ~kind:"wait-cycle"
          (describe_cycle t ~space path)
      end

let unblocked t ~space ~tid = Hashtbl.remove t.blocked (space, tid)

(* Cross-CPU wake tracking: between the send of an [X_wake] scheduler
   message and its delivery, the target looks blocked to everyone but is
   guaranteed to run — treating it as a wait-graph node would report
   deadlocks that resolve by themselves. *)
let remote_wake_sent t ~space ~tid =
  match Hashtbl.find_opt t.blocked (space, tid) with
  | Some b -> b.b_wake_inflight <- true
  | None -> ()

let remote_wake_delivered t ~space ~tid = Hashtbl.remove t.blocked (space, tid)

let retarget t ~space ~tid ~holders =
  match Hashtbl.find_opt t.blocked (space, tid) with
  | None -> ()
  | Some b -> b.b_holders <- holders

let thread_gone t ~space ~tid = Hashtbl.remove t.blocked (space, tid)

let blocked_count t = Hashtbl.length t.blocked

(* --- buffer-lifetime sanitizer ------------------------------------------ *)

let buf_allocated t ~space ~addr ~bytes =
  t.buf_shadowed <- t.buf_shadowed + 1;
  Hashtbl.replace t.buf_live (space, addr) bytes;
  Hashtbl.remove t.buf_retired (space, addr)

let buf_used t ~space ~addr =
  if Hashtbl.mem t.buf_retired (space, addr) then
    record t ~checker:"buffer" ~kind:"use-after-release"
      (Printf.sprintf "kernel buffer 0x%x touched after release" addr)

let buf_released t ~space ~addr =
  if Hashtbl.mem t.buf_live (space, addr) then begin
    Hashtbl.remove t.buf_live (space, addr);
    Hashtbl.replace t.buf_retired (space, addr) ()
  end
  else if Hashtbl.mem t.buf_retired (space, addr) then
    record t ~checker:"buffer" ~kind:"double-release"
      (Printf.sprintf "kernel buffer 0x%x released twice" addr)
(* else: unknown addr — allocated before attach or orphaned by a recycle *)

let buf_reset t ~space =
  let purge tbl =
    let keys =
      Hashtbl.fold
        (fun ((sp, _) as k) _ acc -> if sp = space then k :: acc else acc)
        tbl []
    in
    List.iter (Hashtbl.remove tbl) keys
  in
  purge t.buf_live;
  purge t.buf_retired

(* --- remap-ownership sanitizer ------------------------------------------ *)

(* remap_move transfers ownership of a page range: after the donation the
   sender must treat the range as gone.  We shadow each task's moved-out
   ranges and flag (a) moving a range that was already moved (double
   move), (b) a write landing inside a moved-out range (write after
   move), and (c) a cache page being evicted or reused while it is still
   mapped out to a client without a pin (the file server's zero-copy
   reply protocol requires the pin). *)

let ranges_overlap a1 b1 a2 b2 = a1 < a2 + b2 && a2 < a1 + b1

let remap_moved t ~space ~task ~tname ~addr ~bytes =
  t.remap_moves <- t.remap_moves + 1;
  let key = (space, task) in
  let lst =
    match Hashtbl.find_opt t.moved_out key with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.moved_out key r;
        r
  in
  List.iter
    (fun (a, b, _) ->
      if ranges_overlap addr bytes a b then
        record t ~checker:"remap" ~kind:"double-move"
          (Printf.sprintf
             "task %s: range 0x%x+%d moved out again (overlaps moved-out \
              0x%x+%d)"
             tname addr bytes a b))
    !lst;
  lst := (addr, bytes, tname) :: !lst

let remap_write t ~space ~task ~addr ~bytes =
  match Hashtbl.find_opt t.moved_out (space, task) with
  | None -> ()
  | Some lst ->
      let hit, rest =
        List.partition (fun (a, b, _) -> ranges_overlap addr bytes a b) !lst
      in
      List.iter
        (fun (a, b, tname) ->
          record t ~checker:"remap" ~kind:"write-after-move"
            (Printf.sprintf
               "task %s: write to 0x%x+%d lands in range 0x%x+%d whose \
                pages were donated by remap_move"
               tname addr bytes a b))
        hit;
      (* report once, then re-arm: the range stays gone but we do not
         repeat the finding for every subsequent access *)
      lst := rest

let remap_clear t ~space ~task ~addr ~bytes =
  match Hashtbl.find_opt t.moved_out (space, task) with
  | None -> ()
  | Some lst ->
      lst := List.filter (fun (a, b, _) -> not (ranges_overlap addr bytes a b)) !lst

let cache_mapped_out t ~space ~addr ~pinned =
  Hashtbl.replace t.mapped_out (space, addr) pinned

let cache_unmapped t ~space ~addr =
  Hashtbl.remove t.mapped_out (space, addr)

let cache_reused t ~space ~addr ~tag =
  match Hashtbl.find_opt t.mapped_out (space, addr) with
  | None -> ()
  | Some pinned ->
      record t ~checker:"remap" ~kind:"mapout-eviction"
        (Printf.sprintf
           "cache page 0x%x (%s) reused while still mapped out to a \
            client%s"
           addr tag
           (if pinned then " despite its pin" else " without a pin"));
      Hashtbl.remove t.mapped_out (space, addr)

(* --- crash-consistency checker ------------------------------------------ *)

let crash_point_checked t ~space:_ = t.crash_points <- t.crash_points + 1

let crash_lost_write t ~space:_ detail =
  record t ~checker:"crash" ~kind:"lost-write" detail

let crash_torn_state t ~space:_ detail =
  record t ~checker:"crash" ~kind:"torn-state" detail

(* --- vnode-lifecycle checker --------------------------------------------- *)

(* The VFS reports vnode interning, long-lived references, reclamation
   (unlink / recovery) and every dispatch through a vnode; the shadow
   flags dispatch through a reclaimed vnode, reference-count underflow,
   and references still outstanding when a mount recovers.  Positive
   name-cache entries are shadowed too, so a cache hit whose target was
   reclaimed without invalidation is caught as a stale entry. *)

let vnode_active t ~space ~mount ~file =
  t.vnodes_shadowed <- t.vnodes_shadowed + 1;
  (* formats reuse file ids: a fresh vnode under a reclaimed id is a new
     incarnation, not a use of the old one *)
  Hashtbl.remove t.vn_reclaimed (space, mount, file);
  if not (Hashtbl.mem t.vn_refs (space, mount, file)) then
    Hashtbl.replace t.vn_refs (space, mount, file) 0

let vnode_ref t ~space ~mount ~file =
  let k = (space, mount, file) in
  let n = Option.value (Hashtbl.find_opt t.vn_refs k) ~default:0 in
  Hashtbl.replace t.vn_refs k (n + 1)

let vnode_unref t ~space ~mount ~file =
  let k = (space, mount, file) in
  match Hashtbl.find_opt t.vn_refs k with
  | Some n when n > 0 -> Hashtbl.replace t.vn_refs k (n - 1)
  | _ ->
      record t ~checker:"vnode" ~kind:"ref-underflow"
        (Printf.sprintf
           "vnode m%d/f%d unreferenced more times than it was referenced"
           mount file)

let vnode_reclaimed t ~space ~mount ~file =
  Hashtbl.replace t.vn_reclaimed (space, mount, file) ()

let vnode_used t ~space ~mount ~file ~op =
  if Hashtbl.mem t.vn_reclaimed (space, mount, file) then begin
    record t ~checker:"vnode" ~kind:"use-after-reclaim"
      (Printf.sprintf "%s dispatched through reclaimed vnode m%d/f%d" op
         mount file);
    (* one bug is one finding: re-arm rather than repeating *)
    Hashtbl.remove t.vn_reclaimed (space, mount, file)
  end

let vnode_mount_recovered t ~space ~mount =
  let keys =
    Hashtbl.fold
      (fun ((sp, m, _) as k) n acc ->
        if sp = space && m = mount then (k, n) :: acc else acc)
      t.vn_refs []
  in
  List.iter
    (fun (((_, m, f) as k), n) ->
      if n > 0 then
        record t ~checker:"vnode" ~kind:"leaked-refs"
          (Printf.sprintf
             "vnode m%d/f%d still holds %d reference(s) across mount \
              recovery"
             m f n);
      Hashtbl.remove t.vn_refs k)
    keys;
  let dead =
    Hashtbl.fold
      (fun ((sp, m, _) as k) _ acc ->
        if sp = space && m = mount then k :: acc else acc)
      t.vn_reclaimed []
  in
  List.iter (Hashtbl.remove t.vn_reclaimed) dead

(* --- name-cache shadow ---------------------------------------------------- *)

let ncache_stored t ~space ~mount ~dir ~name ~file =
  t.ncache_shadowed <- t.ncache_shadowed + 1;
  Hashtbl.replace t.nc_entries (space, mount, dir, name) file

let ncache_hit t ~space ~mount ~dir ~name =
  match Hashtbl.find_opt t.nc_entries (space, mount, dir, name) with
  | None -> ()
  | Some file ->
      if Hashtbl.mem t.vn_reclaimed (space, mount, file) then begin
        record t ~checker:"vnode" ~kind:"stale-entry"
          (Printf.sprintf
             "name cache served (m%d/d%d, %S) -> f%d after the vnode was \
              reclaimed without invalidation"
             mount dir name file);
        Hashtbl.remove t.nc_entries (space, mount, dir, name)
      end

let ncache_invalidated t ~space ~mount ~dir ~name =
  Hashtbl.remove t.nc_entries (space, mount, dir, name)

let ncache_cleared t ~space =
  let keys =
    Hashtbl.fold
      (fun ((sp, _, _, _) as k) _ acc -> if sp = space then k :: acc else acc)
      t.nc_entries []
  in
  List.iter (Hashtbl.remove t.nc_entries) keys

(* --- netisr shard checker ------------------------------------------------- *)

let net_socket_home t ~space ~sock ~shard =
  t.net_sockets <- t.net_sockets + 1;
  Hashtbl.replace t.net_homes (space, sock) shard

let net_touched t ~space ~sock ~home ~shard =
  t.net_touches <- t.net_touches + 1;
  (* trust the registered home over the caller's claim, if we saw it *)
  let home =
    match Hashtbl.find_opt t.net_homes (space, sock) with
    | Some h -> h
    | None -> home
  in
  if shard <> home then
    record t ~checker:"net" ~kind:"shard-crossing"
      (Printf.sprintf
         "socket u%d (home shard %d) was touched by shard %d's protocol \
          thread"
         sock home shard)

(* --- reincarnation checker ------------------------------------------------ *)

let reinc_shard_killed t ~space:_ ~shard:_ =
  t.reinc_kills <- t.reinc_kills + 1

let reinc_expect t ~space ~shard ~sock =
  Hashtbl.replace t.reinc_expected (space, sock) shard

let reinc_restored t ~space ~shard ~sock =
  match Hashtbl.find_opt t.reinc_expected (space, sock) with
  | Some _ -> Hashtbl.remove t.reinc_expected (space, sock)
  | None ->
      record t ~checker:"reinc" ~kind:"stale-registry"
        (Printf.sprintf
           "shard %d rebuilt socket u%d from a registry entry that matched \
            nothing the dead shard held"
           shard sock)

let reinc_shard_reborn t ~space ~shard =
  t.reinc_reboots <- t.reinc_reboots + 1;
  let orphans =
    Hashtbl.fold
      (fun ((sp, sock) as k) home acc ->
        if sp = space && home = shard then (k, sock) :: acc else acc)
      t.reinc_expected []
  in
  List.iter
    (fun (k, sock) ->
      Hashtbl.remove t.reinc_expected k;
      record t ~checker:"reinc" ~kind:"orphaned-state"
        (Printf.sprintf
           "socket u%d was live in shard %d at its death and reincarnation \
            did not restore it"
           sock shard))
    (List.sort compare orphans)

let reinc_rights_residue t ~space:_ ~shard ~port ~pname =
  record t ~checker:"reinc" ~kind:"rights-residue"
    (Printf.sprintf
       "after shard %d's reboot the netserver still holds rights to %s(p%d) \
        backing no live socket"
       shard pname port)

let reinc_budget_exhausted t ~space:_ ~path ~restarts =
  record t ~checker:"reinc" ~kind:"budget-exhausted"
    (Printf.sprintf
       "%s exhausted its restart budget after %d restart(s) and was demoted \
        to degraded mode"
       path restarts)

(* --- lock-overlap checker ------------------------------------------------- *)

(* Holds kept per lock to compare a new one against.  A conflicting hold
   further back than this would need a CPU lagging by this many holds. *)
let hold_window = 64

let mode_name ex = if ex then "exclusive" else "shared"

let lock_hold t ~space ~res ~rdesc ~tid ~cpu ~exclusive ~from ~until =
  let key = (space, res) in
  let ring =
    match Hashtbl.find_opt t.lock_holds key with
    | Some r -> r
    | None ->
        let r = { lr_holds = Array.make hold_window None; lr_next = 0 } in
        Hashtbl.add t.lock_holds key r;
        r
  in
  let conflicts = function
    | Some o ->
        o.lh_tid <> tid
        && (exclusive || o.lh_exclusive)
        && from < o.lh_until && o.lh_from < until
    | None -> false
  in
  (match Array.find_opt conflicts ring.lr_holds with
  | Some (Some o) ->
      record t ~checker:"lock" ~kind:"lock-overlap"
        (Printf.sprintf
           "%s: %s hold [%d, %d) by t%d on cpu %d overlaps %s hold [%d, %d) \
            by t%d on cpu %d"
           rdesc (mode_name exclusive) from until tid cpu
           (mode_name o.lh_exclusive) o.lh_from o.lh_until o.lh_tid o.lh_cpu)
  | Some None | None -> ());
  ring.lr_holds.(ring.lr_next) <-
    Some
      { lh_tid = tid; lh_cpu = cpu; lh_exclusive = exclusive; lh_from = from;
        lh_until = until };
  ring.lr_next <- (ring.lr_next + 1) mod hold_window;
  t.holds_checked <- t.holds_checked + 1

(* --- reporting ---------------------------------------------------------- *)

let leak_findings t =
  let leaks =
    Hashtbl.fold
      (fun (sp, tk, p) e acc ->
        if Hashtbl.mem t.dead_ports (sp, p) then ((sp, tk, p), e) :: acc
        else acc)
      t.rights []
  in
  let leaks = List.sort (fun (a, _) (b, _) -> compare a b) leaks in
  List.map
    (fun ((_, tk, p), e) ->
      {
        f_checker = "rights";
        f_kind = "leak";
        f_detail =
          Printf.sprintf
            "task %s(t%d) still holds a %s right (refs %d) to dead port \
             %s(p%d)"
            e.ce_tname tk (right_name e.ce_right) e.ce_refs e.ce_pname p;
      })
    leaks

(* The ["machcheck"] block's columns, in JSON order.  An activity column
   reads a counter off the checker; a finding column counts the report's
   findings of one kind.  A new checker adds its events and its columns
   here, nothing else. *)
type column = Activity of (t -> int) | Kind of string

let columns =
  [ ("spaces", Activity (fun t -> t.spaces));
    (* rights sanitizer *)
    ("right_transitions", Activity (fun t -> t.transitions));
    ("live_rights", Activity (fun t -> Hashtbl.length t.rights));
    ("leaked_rights", Kind "leak");
    ("right_double_frees", Kind "double-free");
    ("right_downgrades", Kind "downgrade");
    ("teardown_residual", Activity (fun t -> t.teardown_residual));
    (* deadlock detector *)
    ("blocks_tracked", Activity (fun t -> t.blocks_tracked));
    ("wait_cycles", Kind "wait-cycle");
    (* buffer-lifetime sanitizer *)
    ("buffers_shadowed", Activity (fun t -> t.buf_shadowed));
    ("buf_double_releases", Kind "double-release");
    ("buf_use_after_release", Kind "use-after-release");
    (* remap-ownership sanitizer *)
    ("remap_moves", Activity (fun t -> t.remap_moves));
    ("double_moves", Kind "double-move");
    ("write_after_move", Kind "write-after-move");
    ("mapout_evictions", Kind "mapout-eviction");
    (* crash-consistency checker *)
    ("crash_points", Activity (fun t -> t.crash_points));
    ("lost_writes", Kind "lost-write");
    ("torn_states", Kind "torn-state");
    (* vnode-lifecycle checker and name-cache shadow *)
    ("vnodes_shadowed", Activity (fun t -> t.vnodes_shadowed));
    ("vnode_ref_underflows", Kind "ref-underflow");
    ("vnode_use_after_reclaim", Kind "use-after-reclaim");
    ("vnode_leaks", Kind "leaked-refs");
    ("ncache_shadowed", Activity (fun t -> t.ncache_shadowed));
    ("ncache_stale", Kind "stale-entry");
    (* netisr shard checker *)
    ("net_sockets", Activity (fun t -> t.net_sockets));
    ("net_touches", Activity (fun t -> t.net_touches));
    ("net_shard_crossings", Kind "shard-crossing");
    (* reincarnation checker *)
    ("reinc_kills", Activity (fun t -> t.reinc_kills));
    ("reinc_reboots", Activity (fun t -> t.reinc_reboots));
    ("reinc_orphans", Kind "orphaned-state");
    ("reinc_stale_registry", Kind "stale-registry");
    ("reinc_rights_residue", Kind "rights-residue");
    ("reinc_budget_exhausted", Kind "budget-exhausted");
    (* lock-overlap checker *)
    ("lock_holds", Activity (fun t -> t.holds_checked));
    ("lock_overlaps", Kind "lock-overlap") ]

let report t =
  let findings = List.rev_append t.recorded (leak_findings t) in
  let count = function
    | Activity get -> get t
    | Kind k -> List.length (List.filter (fun f -> f.f_kind = k) findings)
  in
  { counts = List.map (fun (name, c) -> (name, count c)) columns; findings }

let count r name = List.assoc name r.counts

let with_checker enabled f =
  if not enabled then (f (), None)
  else
    let t = create () in
    install t;
    Fun.protect ~finally:uninstall (fun () ->
        let x = f () in
        (x, Some (report t)))

(* Demotion to degraded mode is the restart policy working as designed:
   listed, but not a finding that fails a run. *)
let total_findings r =
  List.length (List.filter (fun f -> f.f_kind <> "budget-exhausted") r.findings)

let to_json r =
  let open Bench_json in
  let finding f =
    Obj
      [ ("checker", Str f.f_checker); ("kind", Str f.f_kind);
        ("detail", Str f.f_detail) ]
  in
  Obj
    (List.map (fun (k, v) -> (k, int v)) r.counts
    @ [ ("total_findings", int (total_findings r));
        ("findings", Arr (List.map finding r.findings)) ])
