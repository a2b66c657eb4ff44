open Fs_types
open Mach.Ktypes

type open_file = {
  of_port : port;  (* one port per open file *)
  of_vn : Vnode.t;  (* referenced for the life of the handle *)
  mutable of_pos : int;
  mutable of_mapped : bool;
  mutable of_zc : (int * int) option;
      (* outstanding zero-copy reply: (pool addr, mapped bytes), pinned
         until the next request on this handle or close *)
}

(* Client-side resilience policy: when set, stub calls go through
   [Rpc.call_retry] — re-resolving the service port before each attempt
   — instead of a bare call against a port that may have died. *)
type retry = {
  rt_resolve : unit -> port option;
  rt_attempts : int;
  rt_deadline : int;
  rt_backoff : int;
}

type t = {
  kernel : Mach.Kernel.t;
  runtime : Mk_services.Runtime.t;
  fs_task : task;
  mutable fs_port : port;  (* replaced when a crashed server restarts *)
  fs_server_threads : int;
  mutable fs_generation : int;  (* bumped per restart, names the threads *)
  fs_vfs : Vfs.t;
  opens : (int, open_file) Hashtbl.t;  (* keyed by the file port's id *)
  buffer_obj : vm_object;  (* shared mapped-read buffer *)
  mutable served : int;
  mutable m_pageins : int;
  mutable fs_retry : retry option;
  mutable fs_last_recovery : recover_report option;  (* set per restart *)
  mutable fs_beat : Mach.Health.beat;  (* fresh per incarnation *)
  mutable fs_health : port;  (* heartbeat port, reallocated per restart *)
}

type path_op = Stat | Mkdir | Readdir | Unlink | Rename of string

type payload +=
  | FS_open of { o_sem : Vfs.semantics; o_path : string; o_create : bool }
  | FS_close of int
  | FS_read of { r_handle : int; r_bytes : int }
  | FS_read_mapped of { rm_handle : int; rm_bytes : int }
  | FS_write of { w_handle : int; w_bytes : bytes }
  | FS_seek of { s_handle : int; s_pos : int }
  | FS_path_op of { p_sem : Vfs.semantics; p_op : path_op; p_path : string }
  | FS_sync
  | FS_read_zc of { rz_handle : int; rz_bytes : int }
  | FS_write_zc of { wz_handle : int; wz_bytes : bytes }
  | FS_r_handle of int
  | FS_r_data of bytes
  | FS_r_len of int
  | FS_r_stat of stat
  | FS_r_names of string list
  | FS_r_unit
  | FS_r_err of fs_error

(* request selectors, for stubs *)
let op_open = 10
let op_close = 11
let op_read = 12
let op_read_mapped = 13
let op_write = 14
let op_seek = 15
let op_path = 16
let op_sync = 17
let op_read_zc = 18
let op_write_zc = 19

(* A request's class.  One that only reads commutes with every other
   request: the stub lets the RPC layer serve it on the caller's CPU out
   of arrival order, and the server holds mount locks shared for it.
   Every other request keeps the RPC layer's arrival order and holds
   mount locks exclusive. *)
let read_only = function
  | FS_open { o_create; _ } -> not o_create
  | FS_read _ | FS_read_zc _ | FS_read_mapped _ | FS_seek _ | FS_close _ ->
      true
  | FS_path_op { p_op = Stat | Readdir; _ } -> true
  | _ -> false

let charge t ~offset ~bytes =
  Mach.Ktext.exec_in t.kernel.Mach.Kernel.ktext t.fs_task.text ~offset ~bytes

(* the per-operation server work beyond the physical file system: vnode
   lookup, open-file table, union-semantics checks *)
let charge_vnode t = charge t ~offset:0x800 ~bytes:640
let charge_open_table t = charge t ~offset:0xc00 ~bytes:256
let charge_union t = charge t ~offset:0x1000 ~bytes:448

let handle_lookup t h =
  match Hashtbl.find_opt t.opens h with
  | Some f when not f.of_port.dead ->
      (* the open-table discipline: a handle whose file was unlinked
         fails here, before any operation reaches the dead vnode *)
      if Vnode.reclaimed f.of_vn then Error E_bad_handle else Ok f
  | Some _ | None -> Error E_bad_handle

let do_open t sem path create =
  charge_vnode t;
  charge_union t;
  let resolved =
    match Vfs.resolve t.fs_vfs sem ~path with
    | Ok x -> Ok x
    | Error E_not_found when create -> (
        match Vfs.create_file t.fs_vfs sem ~path with
        | Ok _id -> Vfs.resolve t.fs_vfs sem ~path
        | Error E_exists ->
            (* a sibling serve thread created it after our walk (a
               negative name-cache hit takes no lock): open theirs *)
            Vfs.resolve t.fs_vfs sem ~path
        | Error e -> Error e)
    | Error e -> Error e
  in
  match resolved with
  | Error e -> FS_r_err e
  | Ok Vfs.Root -> FS_r_err E_is_dir
  | Ok (Vfs.File vn) -> (
      match Vnode.stat vn with
      | Error e -> FS_r_err e
      | Ok st when st.st_is_dir -> FS_r_err E_is_dir
      | Ok _ ->
          charge_open_table t;
          let sys = t.kernel.Mach.Kernel.sys in
          let fport =
            Mach.Port.allocate sys ~receiver:t.fs_task
              ~name:(Printf.sprintf "file:%s" path)
          in
          Vnode.ref_ vn;
          Hashtbl.replace t.opens fport.port_id
            { of_port = fport; of_vn = vn; of_pos = 0;
              of_mapped = false; of_zc = None };
          FS_r_handle fport.port_id)

let do_path_op t sem op path =
  charge_vnode t;
  charge_union t;
  let unit_reply = function Ok () -> FS_r_unit | Error e -> FS_r_err e in
  match op with
  | Stat -> (
      match Vfs.stat t.fs_vfs sem ~path with
      | Ok st -> FS_r_stat st
      | Error e -> FS_r_err e)
  | Mkdir -> unit_reply (Result.map ignore (Vfs.mkdir t.fs_vfs sem ~path))
  | Readdir -> (
      match Vfs.readdir t.fs_vfs sem ~path with
      | Ok names -> FS_r_names names
      | Error e -> FS_r_err e)
  | Unlink -> unit_reply (Vfs.unlink t.fs_vfs sem ~path)
  | Rename dst -> unit_reply (Vfs.rename t.fs_vfs sem ~src:path ~dst)

(* Pool pages backing an earlier zero-copy reply stay pinned until the
   next request on the handle proves the client is done with them. *)
let release_zc f =
  match f.of_zc with
  | Some (addr, bytes) ->
      f.of_zc <- None;
      Vnode.release_paged f.of_vn ~addr ~bytes
  | None -> ()

(* Release what an open file holds: its zero-copy pin, its vnode
   reference and its port.  The caller drops the table entry. *)
let drop_open t f =
  release_zc f;
  Vnode.unref f.of_vn;
  if not f.of_port.dead then
    Mach.Port.destroy t.kernel.Mach.Kernel.sys f.of_port

let handle t (msg : message) : message_builder =
  t.served <- t.served + 1;
  let reply ?(bytes = 32) payload =
    simple_message ~op:msg.msg_op ~inline_bytes:bytes ~payload ()
  in
  match msg.msg_payload with
  | FS_open { o_sem; o_path; o_create } ->
      reply (do_open t o_sem o_path o_create)
  | FS_close h ->
      charge_open_table t;
      let result =
        match handle_lookup t h with Ok _ -> FS_r_unit | Error e -> FS_r_err e
      in
      (* a reclaimed handle still releases its table entry *)
      Option.iter
        (fun f ->
          Hashtbl.remove t.opens h;
          drop_open t f)
        (Hashtbl.find_opt t.opens h);
      reply result
  | FS_read { r_handle; r_bytes } -> (
      charge_open_table t;
      match handle_lookup t r_handle with
      | Error e -> reply (FS_r_err e)
      | Ok f -> (
          match Vnode.read f.of_vn ~off:f.of_pos ~len:r_bytes with
          | Ok data ->
              f.of_pos <- f.of_pos + Bytes.length data;
              (* reply copies the data back inline *)
              reply ~bytes:(Bytes.length data + 32) (FS_r_data data)
          | Error e -> reply (FS_r_err e)))
  | FS_read_mapped { rm_handle; rm_bytes } -> (
      charge_open_table t;
      match handle_lookup t rm_handle with
      | Error e -> reply (FS_r_err e)
      | Ok f -> (
          match Vnode.read f.of_vn ~off:f.of_pos ~len:rm_bytes with
          | Ok data ->
              f.of_pos <- f.of_pos + Bytes.length data;
              (* the data stays in the shared buffer object: map it into
                 the client on first use instead of copying *)
              let sys = t.kernel.Mach.Kernel.sys in
              (if not f.of_mapped then begin
                 f.of_mapped <- true;
                 match msg.msg_sender with
                 | Some client ->
                     ignore
                       (Mach.Vm.map_object sys client t.buffer_obj
                          ~bytes:(64 * 1024) ~prot:prot_ro ()
                         : int)
                 | None -> ()
               end);
              reply (FS_r_len (Bytes.length data))
          | Error e -> reply (FS_r_err e)))
  | FS_write { w_handle; w_bytes } -> (
      charge_open_table t;
      match handle_lookup t w_handle with
      | Error e -> reply (FS_r_err e)
      | Ok f -> (
          match Vnode.write f.of_vn ~off:f.of_pos w_bytes with
          | Ok n ->
              f.of_pos <- f.of_pos + n;
              reply (FS_r_len n)
          | Error e -> reply (FS_r_err e)))
  | FS_seek { s_handle; s_pos } -> (
      charge_open_table t;
      match handle_lookup t s_handle with
      | Ok f ->
          f.of_pos <- max 0 s_pos;
          reply FS_r_unit
      | Error e -> reply (FS_r_err e))
  | FS_read_zc { rz_handle; rz_bytes } -> (
      charge_open_table t;
      match handle_lookup t rz_handle with
      | Error e -> reply (FS_r_err e)
      | Ok f -> (
          release_zc f;
          Vnode.map_pool f.of_vn t.fs_task;
          match
            Vnode.read_paged f.of_vn ~off:f.of_pos ~len:rz_bytes
          with
          | Ok (Some (addr, map_bytes, data)) ->
              f.of_pos <- f.of_pos + Bytes.length data;
              f.of_zc <- Some (addr, map_bytes);
              (* the bytes ride out by COW remap of the pool pages; only
                 the 32-byte header is copied through the message *)
              simple_message ~op:msg.msg_op ~inline_bytes:32
                ~payload:(FS_r_data data)
                ~ool_vec:[ (addr, map_bytes, Cow) ]
                ()
          | Ok None -> (
              (* pool exhausted or unaligned position: copy path *)
              match Vnode.read f.of_vn ~off:f.of_pos ~len:rz_bytes with
              | Ok data ->
                  f.of_pos <- f.of_pos + Bytes.length data;
                  reply ~bytes:(Bytes.length data + 32) (FS_r_data data)
              | Error e -> reply (FS_r_err e))
          | Error e -> reply (FS_r_err e)))
  | FS_write_zc { wz_handle; wz_bytes } ->
      charge_open_table t;
      (* the client's pages arrived by remap-move (no copy); [wz_bytes]
         carries the same contents for the simulation's ground truth *)
      let result =
        match handle_lookup t wz_handle with
        | Error e -> FS_r_err e
        | Ok f -> (
            release_zc f;
            match Vnode.write f.of_vn ~off:f.of_pos wz_bytes with
            | Ok n ->
                f.of_pos <- f.of_pos + n;
                FS_r_len n
            | Error e -> FS_r_err e)
      in
      let sys = t.kernel.Mach.Kernel.sys in
      List.iter
        (fun r ->
          if r.ool_mode = Move then
            Mach.Vm.deallocate sys t.fs_task ~addr:r.ool_addr)
        msg.msg_ool;
      reply result
  | FS_path_op { p_sem; p_op; p_path } ->
      reply (do_path_op t p_sem p_op p_path)
  | FS_sync ->
      Vfs.sync t.kernel.Mach.Kernel.sys t.fs_vfs;
      reply FS_r_unit
  | _ -> reply (FS_r_err (E_io "bad request"))

(* One request, start to built reply.  The serve thread is marked as
   inside a request of its class for the span, so a mount lock it takes
   is held to the reply (one atomic step per request), shared when the
   request only reads, and dropped here. *)
let serve_request t (msg : message) =
  match t.kernel.Mach.Kernel.sys.Mach.Sched.current with
  | None -> handle t msg
  | Some th -> (
      th.request <-
        (if read_only msg.msg_payload then Shared_request
         else Exclusive_request);
      match handle t msg with
      | mb ->
          th.request <- No_request;
          Vfs.end_request t.fs_vfs th;
          mb
      | exception e ->
          th.request <- No_request;
          Vfs.end_request t.fs_vfs th;
          raise e)

(* Start one incarnation's threads: the serve threads on the current
   service port and the health thread on the heartbeat port, all sharing
   the incarnation's beat.  Serve thread [i] (from 1) is bound to CPU
   [(i - 1) mod ncpus], so with one per CPU every CPU has a server to
   hand its clients' calls to.  The first incarnation's threads are
   [fs-serve-<i>] and [fs-health]; a restart's carry the generation. *)
let spawn_incarnation t =
  let sys = t.kernel.Mach.Kernel.sys in
  let gen =
    if t.fs_generation = 0 then "" else Printf.sprintf ".%d" t.fs_generation
  in
  let spawn ?affinity ?bound name body =
    ignore
      (Mach.Kernel.thread_spawn t.kernel t.fs_task ~name ?affinity ?bound body
        : thread)
  in
  let serving = t.fs_port and hp = t.fs_health and beat = t.fs_beat in
  for i = 1 to t.fs_server_threads do
    spawn
      ~affinity:((i - 1) mod Mach.Sched.ncpus sys)
      ~bound:true
      (Printf.sprintf "fs-serve-%d%s" i gen)
      (fun () -> Mach.Rpc.serve sys ~beat serving (serve_request t))
  done;
  (* the health thread answers pings off the beat alone: it stays
     responsive while the serve threads are wedged, which is exactly
     what lets the supervisor's watchdog see the wedge *)
  spawn ("fs-health" ^ gen) (fun () ->
      Mach.Rpc.serve sys hp (Mach.Health.handler beat))

let start (kernel : Mach.Kernel.t) runtime fs_vfs ?server_threads () =
  let sys = kernel.Mach.Kernel.sys in
  let server_threads =
    Option.value server_threads ~default:(Mach.Sched.ncpus sys)
  in
  Mach.Sched.with_uncharged sys (fun () ->
      let fs_task =
        Mach.Kernel.task_create kernel ~name:"file-server" ~personality:"pn"
          ~text_bytes:(64 * 1024) ~data_bytes:(32 * 1024) ()
      in
      Mk_services.Runtime.attach runtime fs_task;
      let fs_port = Mach.Port.allocate sys ~receiver:fs_task ~name:"file-service" in
      let buffer_obj =
        Mach.Vm.object_create sys ~tag:"fs-shared-buffers" ~bytes:(64 * 1024) ()
      in
      let t =
        {
          kernel;
          runtime;
          fs_task;
          fs_port;
          fs_server_threads = server_threads;
          fs_generation = 0;
          fs_vfs;
          opens = Hashtbl.create 32;
          buffer_obj;
          served = 0;
          m_pageins = 0;
          fs_retry = None;
          fs_last_recovery = None;
          fs_beat = Mach.Health.beat ();
          fs_health =
            Mach.Port.allocate sys ~receiver:fs_task ~name:"file-health";
        }
      in
      spawn_incarnation t;
      t)

(* Bring a crashed instance back: volatile state (the open-file table)
   is gone, the service port is reallocated, the mounted volumes run
   crash recovery (journal replay + invariant scan where the format has
   them), fresh serve threads start.  Clients holding old handles get
   [E_bad_handle] and must re-open. *)
let restart t =
  let sys = t.kernel.Mach.Kernel.sys in
  Mach.Sched.with_uncharged sys (fun () ->
      (* the clients died with the incarnation: nobody will release
         their zero-copy pins, references or ports *)
      Hashtbl.iter (fun _ f -> drop_open t f) t.opens;
      Hashtbl.reset t.opens;
      t.fs_last_recovery <- Some (Vfs.recover t.fs_vfs);
      t.fs_generation <- t.fs_generation + 1;
      let fs_port =
        Mach.Port.allocate sys ~receiver:t.fs_task ~name:"file-service"
      in
      t.fs_port <- fs_port;
      (* a fresh beat per incarnation: a wedged old serve thread's stale
         busy-since stamp must not get the replacement killed on its
         first heartbeat *)
      t.fs_beat <- Mach.Health.beat ();
      if not t.fs_health.dead then Mach.Port.destroy sys t.fs_health;
      t.fs_health <-
        Mach.Port.allocate sys ~receiver:t.fs_task ~name:"file-health";
      spawn_incarnation t;
      fs_port)

let set_retry t ?(attempts = 4) ?(deadline = 100_000) ?(backoff = 1_000)
    ~resolve () =
  t.fs_retry <-
    Some
      {
        rt_resolve = resolve;
        rt_attempts = attempts;
        rt_deadline = deadline;
        rt_backoff = backoff;
      }

let port t = t.fs_port
let health_port t = t.fs_health
let task t = t.fs_task
let vfs t = t.fs_vfs
let open_files t = Hashtbl.length t.opens
let requests_served t = t.served
let last_recovery t = t.fs_last_recovery

(* The file server as an external memory manager: a mapped file's pages
   are read from (and written back to) the physical file system on
   demand.  The cost of each page-in/out is the server's vnode work plus
   whatever disk traffic the block cache needs. *)
let map_file t sem task ~path =
  charge_vnode t;
  match Vfs.resolve t.fs_vfs sem ~path with
  | Error e -> Error e
  | Ok Vfs.Root -> Error E_is_dir
  | Ok (Vfs.File vn) -> (
      match Vnode.stat vn with
      | Error e -> Error e
      | Ok st when st.st_is_dir -> Error E_is_dir
      | Ok st ->
          let sys = t.kernel.Mach.Kernel.sys in
          let size = max page_size (pages_of_bytes st.st_size * page_size) in
          let backing =
            {
              bs_name = "file:" ^ path;
              bs_page_in =
                (fun _obj idx k ->
                  t.m_pageins <- t.m_pageins + 1;
                  charge_vnode t;
                  ignore
                    (Vnode.read vn ~off:(idx * page_size) ~len:page_size);
                  k ());
              bs_page_out =
                (fun _obj idx k ->
                  charge_vnode t;
                  ignore
                    (Vnode.write vn ~off:(idx * page_size)
                       (Bytes.make page_size '\000'));
                  k ());
            }
          in
          let obj =
            Mach.Vm.object_create sys ~backing ~tag:("map:" ^ path)
              ~bytes:size ()
          in
          let addr = Mach.Vm.map_object sys task obj ~bytes:size () in
          Ok (addr, st.st_size))

let mapped_pageins t = t.m_pageins

module Client = struct
  type handle = int

  let rpc_msg t ~op ~bytes ?(ool_vec = []) payload =
    let sys = t.kernel.Mach.Kernel.sys in
    let mb = simple_message ~op ~inline_bytes:bytes ~payload ~ool_vec () in
    let commutes = read_only payload in
    match t.fs_retry with
    | None -> Mach.Rpc.call sys t.fs_port ~commutes mb
    | Some r ->
        Mach.Rpc.call_retry sys ~attempts:r.rt_attempts
          ~deadline:r.rt_deadline ~backoff:r.rt_backoff ~commutes
          ~resolve:r.rt_resolve mb

  let rpc t ~op ~bytes ?ool_vec payload =
    match rpc_msg t ~op ~bytes ?ool_vec payload with
    | Ok reply -> reply.msg_payload
    | Error err -> FS_r_err (E_io (kern_return_to_string err))

  let open_ t sem ~path ?(create = false) () =
    match
      rpc t ~op:op_open
        ~bytes:(64 + String.length path)
        (FS_open { o_sem = sem; o_path = path; o_create = create })
    with
    | FS_r_handle h -> Ok h
    | FS_r_err e -> Error e
    | _ -> Error (E_io "bad reply")

  let close t h = ignore (rpc t ~op:op_close ~bytes:32 (FS_close h))

  let read t h ~bytes =
    match
      rpc t ~op:op_read ~bytes:40 (FS_read { r_handle = h; r_bytes = bytes })
    with
    | FS_r_data data -> Ok data
    | FS_r_err e -> Error e
    | _ -> Error (E_io "bad reply")

  (* Zero-copy read: the reply's data pages arrive by COW remap instead
     of an inline copy.  The client reads them where they landed (the
     faults break the sharing page by page) and then drops the mapping,
     which lets the server unpin the pool pages on the next request. *)
  let read_zc t h ~bytes =
    match
      rpc_msg t ~op:op_read_zc ~bytes:40
        (FS_read_zc { rz_handle = h; rz_bytes = bytes })
    with
    | Error err -> Error (E_io (kern_return_to_string err))
    | Ok reply -> (
        match reply.msg_payload with
        | FS_r_data data ->
            let sys = t.kernel.Mach.Kernel.sys in
            let task = (Mach.Sched.self ()).t_task in
            List.iter
              (fun r ->
                if not r.ool_copied then begin
                  Mach.Vm.touch sys task ~addr:r.ool_addr ~bytes:r.ool_bytes ();
                  Mach.Vm.deallocate sys task ~addr:r.ool_addr
                end)
              reply.msg_ool;
            Ok data
        | FS_r_err e -> Error e
        | _ -> Error (E_io "bad reply"))

  (* Zero-copy write: fill a fresh page-aligned buffer and donate it to
     the server by remap-move.  The donated range becomes zero-fill in
     this task, so it is dropped rather than reused. *)
  let write_zc t h data =
    let sys = t.kernel.Mach.Kernel.sys in
    let task = (Mach.Sched.self ()).t_task in
    let len = Bytes.length data in
    let map_bytes = max page_size (pages_of_bytes len * page_size) in
    let buf = Mach.Vm.allocate sys task ~bytes:map_bytes () in
    Mach.Vm.touch sys task ~addr:buf ~write:true ~bytes:len ();
    let result =
      match
        rpc t ~op:op_write_zc ~bytes:72
          ~ool_vec:[ (buf, map_bytes, Move) ]
          (FS_write_zc { wz_handle = h; wz_bytes = data })
      with
      | FS_r_len n -> Ok n
      | FS_r_err e -> Error e
      | _ -> Error (E_io "bad reply")
    in
    Mach.Vm.deallocate sys task ~addr:buf;
    result

  let read_mapped t h ~bytes =
    match
      rpc t ~op:op_read_mapped ~bytes:40
        (FS_read_mapped { rm_handle = h; rm_bytes = bytes })
    with
    | FS_r_len n -> Ok n
    | FS_r_err e -> Error e
    | _ -> Error (E_io "bad reply")

  let write t h data =
    match
      rpc t ~op:op_write
        ~bytes:(Bytes.length data + 40)
        (FS_write { w_handle = h; w_bytes = data })
    with
    | FS_r_len n -> Ok n
    | FS_r_err e -> Error e
    | _ -> Error (E_io "bad reply")

  let seek t h ~pos =
    ignore (rpc t ~op:op_seek ~bytes:40 (FS_seek { s_handle = h; s_pos = pos }))

  let path_op t sem op ~path =
    let path2 = match op with Rename dst -> dst | _ -> "" in
    rpc t ~op:op_path
      ~bytes:(64 + String.length path + String.length path2)
      (FS_path_op { p_sem = sem; p_op = op; p_path = path })

  let stat t sem ~path =
    match path_op t sem Stat ~path with
    | FS_r_stat st -> Ok st
    | FS_r_err e -> Error e
    | _ -> Error (E_io "bad reply")

  let mkdir t sem ~path =
    match path_op t sem Mkdir ~path with
    | FS_r_unit -> Ok ()
    | FS_r_err e -> Error e
    | _ -> Error (E_io "bad reply")

  let readdir t sem ~path =
    match path_op t sem Readdir ~path with
    | FS_r_names names -> Ok names
    | FS_r_err e -> Error e
    | _ -> Error (E_io "bad reply")

  let unlink t sem ~path =
    match path_op t sem Unlink ~path with
    | FS_r_unit -> Ok ()
    | FS_r_err e -> Error e
    | _ -> Error (E_io "bad reply")

  let rename t sem ~src ~dst =
    match path_op t sem (Rename dst) ~path:src with
    | FS_r_unit -> Ok ()
    | FS_r_err e -> Error e
    | _ -> Error (E_io "bad reply")

  let sync t = ignore (rpc t ~op:op_sync ~bytes:32 FS_sync)
end
