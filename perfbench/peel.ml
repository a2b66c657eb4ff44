(* Per-layer cost by peeling: client 0's op stream from a closed-loop
   run is replayed single-client, on a fresh stack each time, at
   successive entry points of the file path

     Os2.dos_*  ->  File_server.Client.*  ->  Vfs.resolve + Vnode.read/write
                ->  Block_cache.read

   next to a null Rpc.call probe: each op's request, at the stub's
   request size, sent to the file server as a message it rejects at
   once with a 32-byte reply.  The probe runs through the server's own
   thread and buffers: message copies cost what they cost on the real
   path, which a separate null server (other stack, other buffers, so
   other cache conflicts) does not reproduce.  A read reply's 512 data
   bytes are thus counted in file_server.self.  Adjacent differences give each
   layer's self cycles and host time; by construction the five
   simulated parts sum to the Os2.dos_*-level cycles per op.

   The block-cache entry point re-issues each op's block-cache accesses
   as the cache's public counters saw them at the VFS level: hits as
   reads of a resident block (the volume superblock), misses as reads of
   blocks no file system ever touches.  A hit is thus costed with its
   data warm in the D-cache, and a write as a read: block_cache.self is
   the cache's own code path, and vfs.self absorbs the data traffic.  On jfs-churn, vfs.self includes the Extfs journal
   commit with its disk barriers: the journal is reached only through
   the VOP wrapper. *)

module F = Fileserver
module Os2 = Personalities.Os2
open Closed

type level = Os2_level | Client_level | Rpc_level | Vfs_level | Cache_level

let level_name = function
  | Os2_level -> "os2"
  | Client_level -> "file_server"
  | Rpc_level -> "mach"
  | Vfs_level -> "vfs"
  | Cache_level -> "block_cache"

(* Request inline size of the File_server.Client stub that carries each
   op. *)
let request_bytes = function
  | Open p | Create p | Delete p -> 64 + String.length p
  | Read _ | Seek _ -> 40
  | Write d -> Bytes.length d + 40
  | Close -> 32

let op_name = function
  | Open _ -> "open"
  | Create _ -> "create"
  | Read _ -> "read"
  | Seek _ -> "seek"
  | Write _ -> "write"
  | Close -> "close"
  | Delete _ -> "delete"

let sem = F.Vfs.os2_semantics

type totals = {
  cycles : int;
  ns : int;
  accesses : (int * int) array;  (* per op: block-cache (hits, misses) *)
}

let ignore_result (_ : ('a, 'b) result) = ()

(* Replay [ops] at one level on a fresh stack; every op runs on CPU 0,
   where the file server lives and where client 0 ran. *)
let replay ~wl ~seed ~level ~(prev : totals option) ops =
  let env = Closed.setup ~wl ~seed () in
  let st = env.st in
  let sys = st.Stack.sys in
  let tr = Trace.create () in
  let n = List.length ops in
  let accesses = Array.make n (0, 0) in
  let cache = match wl with Os2_hot -> st.Stack.hpfs | Jfs_churn -> st.Stack.jfs in
  let bc_count () =
    ( F.Block_cache.hits st.Stack.hpfs + F.Block_cache.hits st.Stack.jfs,
      F.Block_cache.misses st.Stack.hpfs + F.Block_cache.misses st.Stack.jfs )
  in
  let task =
    match level with
    | Os2_level | Client_level | Rpc_level -> Os2.process_task env.procs.(0)
    | Vfs_level | Cache_level -> F.File_server.task st.Stack.fs
  in
  let os2 = st.Stack.os2 and p = env.procs.(0) and fs = st.Stack.fs in
  let handle = ref None and vnode = ref None and pos = ref 0 in
  let cold = ref Stack.cold_block_base in
  let sb = match wl with Os2_hot -> Stack.hpfs_start | Jfs_churn -> Stack.jfs_start in
  let do_op i o =
    match level with
    | Os2_level -> (
        match (o, !handle) with
        | Open path, _ -> handle := Result.to_option (Os2.dos_open os2 p ~path ())
        | Create path, _ ->
            handle := Result.to_option (Os2.dos_open os2 p ~path ~create:true ())
        | Read n, Some h -> ignore_result (Os2.dos_read os2 p h ~bytes:n)
        | Seek pos, Some h -> F.File_server.Client.seek fs h ~pos
        | Write d, Some h -> ignore_result (Os2.dos_write os2 p h d)
        | Close, Some h -> Os2.dos_close os2 p h
        | Delete path, _ -> ignore_result (Os2.dos_delete os2 p ~path)
        | (Read _ | Seek _ | Write _ | Close), None -> ())
    | Client_level -> (
        match (o, !handle) with
        | Open path, _ ->
            handle := Result.to_option (F.File_server.Client.open_ fs sem ~path ())
        | Create path, _ ->
            handle :=
              Result.to_option (F.File_server.Client.open_ fs sem ~path ~create:true ())
        | Read n, Some h -> ignore_result (F.File_server.Client.read fs h ~bytes:n)
        | Seek pos, Some h -> F.File_server.Client.seek fs h ~pos
        | Write d, Some h -> ignore_result (F.File_server.Client.write fs h d)
        | Close, Some h -> F.File_server.Client.close fs h
        | Delete path, _ -> ignore_result (F.File_server.Client.unlink fs sem ~path)
        | (Read _ | Seek _ | Write _ | Close), None -> ())
    | Rpc_level ->
        (* a request the file server rejects at once ("bad request") *)
        ignore_result
          (Mach.Rpc.call sys (F.File_server.port fs)
             (Mach.Ktypes.simple_message ~inline_bytes:(request_bytes o) ()))
    | Vfs_level -> (
        let h0, m0 = bc_count () in
        (match (o, !vnode) with
        | Open path, _ -> (
            pos := 0;
            match F.Vfs.resolve st.Stack.vfs sem ~path with
            | Ok (F.Vfs.File vn) -> vnode := Some vn
            | Ok F.Vfs.Root | Error _ -> vnode := None)
        | Create path, _ -> (
            pos := 0;
            ignore_result (F.Vfs.create_file st.Stack.vfs sem ~path);
            match F.Vfs.resolve st.Stack.vfs sem ~path with
            | Ok (F.Vfs.File vn) -> vnode := Some vn
            | Ok F.Vfs.Root | Error _ -> vnode := None)
        | Read n, Some vn -> (
            match F.Vnode.read vn ~off:!pos ~len:n with
            | Ok d -> pos := !pos + Bytes.length d
            | Error _ -> ())
        | Seek off, _ -> pos := off
        | Write d, Some vn -> (
            match F.Vnode.write vn ~off:!pos d with
            | Ok k -> pos := !pos + k
            | Error _ -> ())
        | Close, _ -> vnode := None
        | Delete path, _ -> ignore_result (F.Vfs.unlink st.Stack.vfs sem ~path)
        | (Read _ | Write _), None -> ());
        let h1, m1 = bc_count () in
        accesses.(i) <- (h1 - h0, m1 - m0))
    | Cache_level ->
        let hits, misses =
          match prev with Some t -> t.accesses.(i) | None -> (0, 0)
        in
        for _ = 1 to hits do
          ignore (F.Block_cache.read cache sb : bytes)
        done;
        for _ = 1 to misses do
          ignore (F.Block_cache.read cache !cold : bytes);
          incr cold
        done
  in
  Stack.spawn st task ~name:"peel" ~cpu:0 (fun () ->
      if level = Cache_level then ignore (F.Block_cache.read cache sb : bytes);
      List.iteri
        (fun i o ->
          ignore
            (Trace.call (Some tr) st ~layer:(level_name level) ~fn:(op_name o)
               ~cpu:0 ~actor:0 (fun () -> do_op i o)
              : unit * int))
        ops);
  Mach.Kernel.run st.Stack.k;
  let spans = Trace.spans tr in
  {
    cycles = List.fold_left (fun acc s -> acc + (s.Trace.c1 - s.Trace.c0)) 0 spans;
    ns = List.fold_left (fun acc s -> acc + s.Trace.ns) 0 spans;
    accesses;
  }

(* The per-layer metrics of one peel: simulated self cycles (which sum
   to [os2.cycles_per_op]) and host self nanoseconds. *)
let run ~wl ~seed ops =
  let n = float_of_int (max 1 (List.length ops)) in
  let os2 = replay ~wl ~seed ~level:Os2_level ~prev:None ops in
  let client = replay ~wl ~seed ~level:Client_level ~prev:None ops in
  let rpc = replay ~wl ~seed ~level:Rpc_level ~prev:None ops in
  let vfs = replay ~wl ~seed ~level:Vfs_level ~prev:None ops in
  let bc = replay ~wl ~seed ~level:Cache_level ~prev:(Some vfs) ops in
  let per x = float_of_int x /. n in
  let sim =
    [
      ("os2.cycles_per_op", per os2.cycles);
      ("os2.self_cycles_per_op", per (os2.cycles - client.cycles));
      ("mach.rpc_null_cycles", per rpc.cycles);
      ("file_server.self_cycles_per_op", per (client.cycles - rpc.cycles - vfs.cycles));
      ("vfs.self_cycles_per_op", per (vfs.cycles - bc.cycles));
      ("block_cache.self_cycles_per_op", per bc.cycles);
    ]
  and host =
    [
      ("host.ns_per_op.os2", per (os2.ns - client.ns));
      ("host.ns_per_op.file_server", per (client.ns - vfs.ns));
      ("host.ns_per_op.vnode", per (vfs.ns - bc.ns));
      ("host.ns_per_op.block_cache", per bc.ns);
    ]
  in
  (sim, host)
