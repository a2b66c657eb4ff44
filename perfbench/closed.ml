(* The two closed-loop file workloads.  OS/2 processes run sessions
   back to back, each call waiting for the previous one to return:

   - os2-hot: open, four 512 B reads (the whole 2 KiB file), in one
     session of four a seek plus a 512 B in-place write, then close —
     over 16 shared HPFS files whose 32 KiB fit the 128 KiB block cache,
     so the disk stays idle once warm.
   - jfs-churn: create, one 1 KiB write, close, and with probability 1/3
     an unlink of one of the process's surviving files — each process in
     its own JFS directory (a shared flat directory of ~240 interleaved
     entries runs into Extfs.max_extents and fails with E_no_space).

   Each run has a warm-up phase (part of set-up), a main phase of
   [main_clients] processes and a peak phase of [peak_clients] with the
   same total op count: the two steps of the closed-loop load ladder. *)

module F = Fileserver
module Os2 = Personalities.Os2

type workload = Os2_hot | Jfs_churn

(* One call of the op stream, as the peeled replay re-issues it. *)
type op =
  | Open of string
  | Create of string
  | Read of int
  | Seek of int
  | Write of bytes
  | Close
  | Delete of string

let main_clients = 8
let peak_clients = 16
let hot_files = 16
let hot_blocks = 4  (* 2 KiB files of 512 B blocks *)
let block_size = 512
let churn_bytes = 1024

(* p99 latency limits of the closed-loop ladder (cycles): a step counts
   toward max_ok_rate only when its p99 meets the limit with no failed
   op.  Fixed here, about 3x the p99 the 16-client step shows at the
   commit that defined the benchmark. *)
let p99_limit = function Os2_hot -> 200_000 | Jfs_churn -> 250_000_000

(* --- seeded content ------------------------------------------------------- *)

let lcg s = ((s * 1103515245) + 12345) land 0x3fffffff

let fill b ~off ~len ~key =
  let h = ref (Hashtbl.hash key lor 1) in
  for i = off to off + len - 1 do
    h := lcg !h;
    Bytes.unsafe_set b i (Char.unsafe_chr ((!h lsr 11) land 0xff))
  done

(* An os2-hot block image names its (file, block, version) in a 13-byte
   header, so a read can be checked against the exact bytes of the
   version it claims to be. *)
let hot_block ~seed ~file ~block ~version =
  let b = Bytes.create block_size in
  let h = Printf.sprintf "F%02dB%dV%07d" file block version in
  Bytes.blit_string h 0 b 0 (String.length h);
  fill b ~off:(String.length h)
    ~len:(block_size - String.length h)
    ~key:(seed, file, block, version);
  b

let parse_header d =
  if Bytes.length d < 13 then None
  else
    try
      Scanf.sscanf (Bytes.sub_string d 0 13) "F%2dB%1dV%7d%!" (fun f b v ->
          Some (f, b, v))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let churn_data ~seed ~client ~seq =
  let b = Bytes.create churn_bytes in
  fill b ~off:0 ~len:churn_bytes ~key:(seed, client, seq);
  b

let hot_path f = Printf.sprintf "/os2/hot/f%02d.dat" f
let churn_dir c = Printf.sprintf "/jfs/p%02d" c

(* --- run state -------------------------------------------------------------- *)

type env = {
  st : Stack.t;
  wl : workload;
  seed : int;
  mutable tr : Trace.t option;  (* set once set-up is over *)
  procs : Os2.process array;
  issued : int array array;  (* os2-hot: newest version issued per block *)
  committed : int array array;  (* newest version whose write returned *)
  live : (string * int) list array;  (* jfs-churn: surviving (path, seq) *)
  mutable gone : string list;  (* jfs-churn: unlinked paths *)
  next_seq : int array;
}

type phase = {
  clients : int;
  mutable ops : int;
  mutable failed : int;
  lat : Stats.samples;
  mutable wall : int;
  mutable log : op list;  (* client 0's op stream, newest first *)
  mutable before : Stack.counters option;
  mutable after : Stack.counters option;
}

let new_phase clients =
  { clients; ops = 0; failed = 0; lat = Stats.create (); wall = 0; log = [];
    before = None; after = None }

(* One call into the personality (or, for seek, the file-server stub the
   personality hands its handles to): latency from call to return on the
   calling CPU, the op logged for the peel, [ok] judging the result. *)
let call env ph ~c ~cpu ~layer ~fn o f ok =
  let r, cycles = Trace.call env.tr env.st ~layer ~fn ~cpu ~actor:c f in
  ph.ops <- ph.ops + 1;
  Stats.add ph.lat cycles;
  if not (ok r) then ph.failed <- ph.failed + 1;
  if c = 0 then ph.log <- o :: ph.log;
  r

let is_ok = function Ok _ -> true | Error _ -> false

let os2_session env ph ~c ~cpu rng =
  let os2 = env.st.Stack.os2 and p = env.procs.(c) in
  let f = Random.State.int rng hot_files in
  let path = hot_path f in
  match
    call env ph ~c ~cpu ~layer:"os2" ~fn:"dos_open" (Open path)
      (fun () -> Os2.dos_open os2 p ~path ())
      is_ok
  with
  | Error _ -> ()
  | Ok h ->
      for blk = 0 to hot_blocks - 1 do
        (* any version newer than the last write returned before this
           read was issued, and no newer than the last one issued before
           it returned, is a correct answer *)
        let lo = env.committed.(f).(blk) in
        ignore
          (call env ph ~c ~cpu ~layer:"os2" ~fn:"dos_read" (Read block_size)
             (fun () -> Os2.dos_read os2 p h ~bytes:block_size)
             (function
               | Error _ -> false
               | Ok d -> (
                   match parse_header d with
                   | Some (f', b', v) ->
                       f' = f && b' = blk && v >= lo
                       && v <= env.issued.(f).(blk)
                       && Bytes.equal d
                            (hot_block ~seed:env.seed ~file:f ~block:blk
                               ~version:v)
                   | None -> false))
            : (bytes, F.Fs_types.fs_error) result)
      done;
      if Random.State.int rng 4 = 0 then begin
        let blk = Random.State.int rng hot_blocks in
        call env ph ~c ~cpu ~layer:"file_server" ~fn:"seek"
          (Seek (blk * block_size))
          (fun () -> F.File_server.Client.seek env.st.Stack.fs h ~pos:(blk * block_size))
          (fun () -> true);
        let v = env.issued.(f).(blk) + 1 in
        env.issued.(f).(blk) <- v;
        let data = hot_block ~seed:env.seed ~file:f ~block:blk ~version:v in
        match
          call env ph ~c ~cpu ~layer:"os2" ~fn:"dos_write" (Write data)
            (fun () -> Os2.dos_write os2 p h data)
            (function Ok n -> n = block_size | Error _ -> false)
        with
        | Ok _ -> env.committed.(f).(blk) <- max v env.committed.(f).(blk)
        | Error _ -> ()
      end;
      call env ph ~c ~cpu ~layer:"os2" ~fn:"dos_close" Close
        (fun () -> Os2.dos_close os2 p h)
        (fun () -> true)

let churn_session env ph ~c ~cpu rng =
  let os2 = env.st.Stack.os2 and p = env.procs.(c) in
  let seq = env.next_seq.(c) in
  env.next_seq.(c) <- seq + 1;
  let path = Printf.sprintf "%s/f%d" (churn_dir c) seq in
  (match
     call env ph ~c ~cpu ~layer:"os2" ~fn:"dos_open" (Create path)
       (fun () -> Os2.dos_open os2 p ~path ~create:true ())
       is_ok
   with
  | Error _ -> ()
  | Ok h ->
      let data = churn_data ~seed:env.seed ~client:c ~seq in
      let wrote =
        call env ph ~c ~cpu ~layer:"os2" ~fn:"dos_write" (Write data)
          (fun () -> Os2.dos_write os2 p h data)
          (function Ok n -> n = churn_bytes | Error _ -> false)
      in
      call env ph ~c ~cpu ~layer:"os2" ~fn:"dos_close" Close
        (fun () -> Os2.dos_close os2 p h)
        (fun () -> true);
      if wrote = Ok churn_bytes then env.live.(c) <- (path, seq) :: env.live.(c));
  if Random.State.int rng 3 = 0 && env.live.(c) <> [] then begin
    let victims = env.live.(c) in
    let path, _ = List.nth victims (Random.State.int rng (List.length victims)) in
    match
      call env ph ~c ~cpu ~layer:"os2" ~fn:"dos_delete" (Delete path)
        (fun () -> Os2.dos_delete os2 p ~path)
        is_ok
    with
    | Ok () ->
        env.live.(c) <- List.filter (fun (q, _) -> q <> path) victims;
        env.gone <- path :: env.gone
    | Error _ -> ()
  end

(* Run one closed-loop phase: [clients] processes, one bound thread each,
   spread round-robin over the CPUs (the file server stays on CPU 0). *)
let run_phase env ~tag ~clients ~sessions =
  let ph = new_phase clients in
  let st = env.st in
  let session =
    match env.wl with Os2_hot -> os2_session | Jfs_churn -> churn_session
  in
  for c = 0 to clients - 1 do
    let cpu = c mod Stack.ncpus in
    let rng = Random.State.make [| env.seed; tag; c |] in
    Stack.spawn st (Os2.process_task env.procs.(c))
      ~name:(Printf.sprintf "client%d" c) ~cpu (fun () ->
        for _ = 1 to sessions do
          session env ph ~c ~cpu rng
        done)
  done;
  let t0 = Stack.sync_clocks st in
  ph.before <- Some (Stack.counters st);
  Mach.Kernel.run st.Stack.k;
  let after = Stack.counters st in
  ph.after <- Some after;
  ph.wall <- after.Stack.c_wall - t0;
  ph

(* --- set-up ------------------------------------------------------------------ *)

let ok_fs what = function Ok x -> x | Error e -> Stack.fail_fs what e

(* Populate outside thread context, where the block cache falls through
   to zero-cost synchronous disk access. *)
let populate env =
  let vfs = env.st.Stack.vfs and sem = F.Vfs.os2_semantics in
  match env.wl with
  | Os2_hot ->
      ignore (ok_fs "mkdir" (F.Vfs.mkdir vfs sem ~path:"/os2/hot") : F.Fs_types.file_id);
      for f = 0 to hot_files - 1 do
        let path = hot_path f in
        ignore (ok_fs "create" (F.Vfs.create_file vfs sem ~path) : F.Fs_types.file_id);
        match ok_fs "resolve" (F.Vfs.resolve vfs sem ~path) with
        | F.Vfs.Root -> failwith "populate: file resolved to the root"
        | F.Vfs.File vn ->
            for blk = 0 to hot_blocks - 1 do
              let d = hot_block ~seed:env.seed ~file:f ~block:blk ~version:0 in
              ignore (ok_fs "write" (F.Vnode.write vn ~off:(blk * block_size) d) : int)
            done
      done
  | Jfs_churn ->
      for c = 0 to peak_clients - 1 do
        ignore
          (ok_fs "mkdir" (F.Vfs.mkdir vfs sem ~path:(churn_dir c)) : F.Fs_types.file_id)
      done

let setup ~wl ~seed () =
  let st = Stack.boot () in
  let procs =
    Array.init peak_clients (fun c ->
        Os2.create_process st.Stack.os2 ~name:(Printf.sprintf "app%d" c)
          ~entry:(fun _ -> ()))
  in
  let env =
    {
      st; wl; seed; tr = None; procs;
      issued = Array.make_matrix hot_files hot_blocks 0;
      committed = Array.make_matrix hot_files hot_blocks 0;
      live = Array.make peak_clients [];
      gone = [];
      next_seq = Array.make peak_clients 0;
    }
  in
  populate env;
  let warm = match wl with Os2_hot -> 16 | Jfs_churn -> 4 in
  ignore (run_phase env ~tag:0 ~clients:main_clients ~sessions:warm : phase);
  env

(* --- after the run: read every surviving churn file back ----------------- *)

let verify env =
  let checks = ref 0 and bad = ref 0 in
  (match env.wl with
  | Os2_hot -> ()  (* every read was checked as it returned *)
  | Jfs_churn ->
      let st = env.st and sem = F.Vfs.os2_semantics in
      let fs = st.Stack.fs in
      let check b =
        incr checks;
        if not b then incr bad
      in
      Stack.spawn st (Os2.process_task env.procs.(0)) ~name:"verify" ~cpu:1
        (fun () ->
          Array.iteri
            (fun c files ->
              List.iter
                (fun (path, seq) ->
                  (match F.File_server.Client.stat fs sem ~path with
                  | Ok s -> check (s.F.Fs_types.st_size = churn_bytes)
                  | Error _ -> check false);
                  match F.File_server.Client.open_ fs sem ~path () with
                  | Error _ -> check false
                  | Ok h ->
                      (match F.File_server.Client.read fs h ~bytes:churn_bytes with
                      | Ok d ->
                          check (Bytes.equal d (churn_data ~seed:env.seed ~client:c ~seq))
                      | Error _ -> check false);
                      F.File_server.Client.close fs h)
                files)
            env.live;
          List.iter
            (fun path -> check (not (is_ok (F.File_server.Client.stat fs sem ~path))))
            env.gone);
      Mach.Kernel.run st.Stack.k);
  (!checks, !bad)

(* --- one measured run ------------------------------------------------------- *)

type run = {
  main : phase;
  peak : phase;
  checks : int;
  bad_checks : int;
  host_s : float;  (* host CPU seconds of the main and peak phases *)
}

(* Main-phase sessions per client. *)
let sessions = function Os2_hot -> 200 | Jfs_churn -> 60

let measure env =
  let sessions = sessions env.wl in
  let (main, peak), host_s =
    Trace.cpu_timed (fun () ->
        let main = run_phase env ~tag:1 ~clients:main_clients ~sessions in
        let peak =
          run_phase env ~tag:2 ~clients:peak_clients
            ~sessions:(sessions * main_clients / peak_clients)
        in
        (main, peak))
  in
  let checks, bad_checks = verify env in
  { main; peak; checks; bad_checks; host_s }

let throughput ph =
  if ph.wall = 0 then 0.0 else float_of_int ph.ops /. float_of_int ph.wall *. 1e6
