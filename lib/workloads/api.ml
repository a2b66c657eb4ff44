type handle = {
  read : bytes:int -> int;
  write : bytes:int -> int;
  seek : pos:int -> unit;
  close : unit -> unit;
}

type queue = { post : int -> unit; wait : unit -> int }

type t = {
  api_name : string;
  machine : Machine.t;
  spawn : name:string -> (t -> unit) -> unit;
  go : unit -> unit;
  root : string;
  f_open : path:string -> create:bool -> (handle, string) result;
  f_unlink : path:string -> unit;
  alloc : bytes:int -> int;
  touch : addr:int -> write:bool -> bytes:int -> unit;
  compute : units:int -> unit;
  draw : x:int -> y:int -> w:int -> h:int -> unit;
  make_queue : name:string -> queue;
  yield : unit -> unit;
}

(* user-level computation: the application's hot loop — a 2 KB inner
   loop in its own text, cache-resident on either machine once warm *)
let compute_in_current_task (kernel : Mach.Kernel.t) ~units =
  let th = Mach.Sched.self () in
  let text = th.Mach.Ktypes.t_task.Mach.Ktypes.text in
  let base = 0x400 and window = 2048 in
  let rec loop remaining off =
    if remaining > 0 then begin
      let bytes = min 1024 (remaining * 64) in
      let off = if off + bytes > base + window then base else off in
      Mach.Ktext.exec_in kernel.Mach.Kernel.ktext text ~offset:off ~bytes;
      loop (remaining - ((bytes + 63) / 64)) (off + bytes)
    end
  in
  loop units base

let fs_err e = Fileserver.Fs_types.fs_error_to_string e

(* ---- WPOS: through the OS/2 personality --------------------------------- *)

let of_wpos (w : Wpos.t) =
  let kernel = w.Wpos.kernel in
  let os2 = w.Wpos.os2 in
  let pm = w.Wpos.pm in
  (* current thread's process *)
  let procs : (int, Personalities.Os2.process) Hashtbl.t = Hashtbl.create 8 in
  let current_process () =
    let th = Mach.Sched.self () in
    Hashtbl.find procs th.Mach.Ktypes.t_task.Mach.Ktypes.task_id
  in
  let windows :
      (int * int * int * int * int, Personalities.Pm.window) Hashtbl.t =
    Hashtbl.create 8
  in
  let window_for p ~x ~y ~w:ww ~h =
    let task = Personalities.Os2.process_task p in
    let key = (task.Mach.Ktypes.task_id, x, y, ww, h) in
    match Hashtbl.find_opt windows key with
    | Some win -> win
    | None ->
        let win = Personalities.Pm.win_create pm p ~x ~y ~w:ww ~h in
        Hashtbl.replace windows key win;
        win
  in
  let rec api =
    {
      api_name = "wpos-os2";
      machine = w.Wpos.machine;
      spawn =
        (fun ~name body ->
          let p =
            Personalities.Os2.create_process os2 ~name ~entry:(fun _p ->
                body api)
          in
          Hashtbl.replace procs
            (Personalities.Os2.process_task p).Mach.Ktypes.task_id p);
      go = (fun () -> Wpos.run w);
      root = "/os2";
      f_open =
        (fun ~path ~create ->
          match
            Personalities.Os2.dos_open os2 (current_process ()) ~path ~create
              ()
          with
          | Ok h ->
              Ok
                {
                  read =
                    (fun ~bytes ->
                      match
                        Personalities.Os2.dos_read os2 (current_process ()) h
                          ~bytes
                      with
                      | Ok data -> Bytes.length data
                      | Error _ -> 0);
                  write =
                    (fun ~bytes ->
                      match
                        Personalities.Os2.dos_write os2 (current_process ()) h
                          (Bytes.make bytes 'w')
                      with
                      | Ok n -> n
                      | Error _ -> 0);
                  seek =
                    (fun ~pos ->
                      Fileserver.File_server.Client.seek w.Wpos.file_server h
                        ~pos);
                  close =
                    (fun () ->
                      Personalities.Os2.dos_close os2 (current_process ()) h);
                }
          | Error e -> Error (fs_err e));
      f_unlink =
        (fun ~path ->
          ignore
            (Personalities.Os2.dos_delete os2 (current_process ()) ~path));
      alloc =
        (fun ~bytes ->
          match
            Personalities.Os2.dos_alloc_mem os2 (current_process ()) ~bytes
          with
          | Ok addr -> addr
          | Error e -> failwith (Mach.Ktypes.kern_return_to_string e));
      touch =
        (fun ~addr ~write ~bytes ->
          let th = Mach.Sched.self () in
          Mach.Vm.touch kernel.Mach.Kernel.sys th.Mach.Ktypes.t_task ~addr
            ~write ~bytes ());
      compute = (fun ~units -> compute_in_current_task kernel ~units);
      draw =
        (fun ~x ~y ~w:ww ~h ->
          (* Klondike style: user-level library drives the screen buffer *)
          let p = current_process () in
          let win = window_for p ~x ~y ~w:ww ~h in
          Personalities.Pm.gpi_fill pm win ~pixel:'k');
      make_queue =
        (fun ~name ->
          ignore name;
          let p = current_process () in
          let win = Personalities.Pm.win_create pm p ~x:0 ~y:0 ~w:64 ~h:64 in
          {
            post =
              (fun v -> Personalities.Pm.win_post_msg pm win ~code:v ~param:0);
            wait =
              (fun () ->
                (Personalities.Pm.win_get_msg pm win).Personalities.Pm.msg_code);
          });
      yield = (fun () -> Mach.Sched.yield ());
    }
  in
  api

(* ---- monolithic --------------------------------------------------------- *)

let of_monolithic (m : Monolithic.t) =
  let kernel = Monolithic.kernel m in
  let machine = Monolithic.machine m in
  let next_q = ref 0 in
  let rec api =
    {
      api_name = "native-os2";
      machine;
      spawn =
        (fun ~name body ->
          ignore (Monolithic.spawn_process m ~name (fun () -> body api)));
      go = (fun () -> Monolithic.run m);
      root = "/c";
      f_open =
        (fun ~path ~create ->
          match Monolithic.sys_open m ~path ~create () with
          | Ok h ->
              Ok
                {
                  read =
                    (fun ~bytes ->
                      match Monolithic.sys_read m h ~bytes with
                      | Ok data -> Bytes.length data
                      | Error _ -> 0);
                  write =
                    (fun ~bytes ->
                      match Monolithic.sys_write m h (Bytes.make bytes 'w') with
                      | Ok n -> n
                      | Error _ -> 0);
                  seek = (fun ~pos -> Monolithic.sys_seek m h ~pos);
                  close = (fun () -> Monolithic.sys_close m h);
                }
          | Error e -> Error (fs_err e));
      f_unlink = (fun ~path -> ignore (Monolithic.sys_unlink m ~path));
      alloc = (fun ~bytes -> Monolithic.sys_alloc m ~bytes);
      touch =
        (fun ~addr ~write ~bytes -> Monolithic.sys_touch m ~addr ~write ~bytes ());
      compute = (fun ~units -> compute_in_current_task kernel ~units);
      draw =
        (fun ~x ~y ~w ~h ->
          (* native PM: also a user-level library over the frame buffer *)
          compute_in_current_task kernel ~units:(2 + (h / 4));
          let w = max 1 (min w (639 - x)) and h = max 1 (min h (479 - y)) in
          Machine.Framebuffer.fill_rect machine.Machine.framebuffer
            machine.Machine.cpu ~x ~y ~w ~h ~pixel:'n');
      make_queue =
        (fun ~name ->
          ignore name;
          incr next_q;
          let q = Queue.create () in
          let sem =
            Mach.Sync.semaphore_create kernel.Mach.Kernel.sys
              ~name:(Printf.sprintf "pmq%d" !next_q)
              ~value:0
          in
          {
            post =
              (fun v ->
                compute_in_current_task kernel ~units:2;
                Queue.add v q;
                Mach.Sync.semaphore_signal kernel.Mach.Kernel.sys sem);
            wait =
              (fun () ->
                ignore
                  (Mach.Sync.semaphore_wait kernel.Mach.Kernel.sys sem
                    : Mach.Ktypes.kern_return);
                match Queue.take_opt q with Some v -> v | None -> 0);
          });
      yield = (fun () -> Monolithic.sys_yield m);
    }
  in
  api

let elapsed t f =
  let t0 = Machine.now t.machine in
  f ();
  Machine.now t.machine - t0
