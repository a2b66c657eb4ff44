type spec = {
  id : string;
  app : string;
  scale : int;
  body : Api.t -> unit;
}

let open_or_fail (api : Api.t) ~path ~create =
  match api.Api.f_open ~path ~create with
  | Ok h -> h
  | Error e -> failwith (Printf.sprintf "%s: open %s: %s" api.Api.api_name path e)

(* --- File Intensive 1: document-style traffic (IBM Works applications) --- *)

let file_intensive_1 scale (api : Api.t) =
  api.Api.spawn ~name:"works" (fun api ->
      let path = api.Api.root ^ "/works.doc" in
      for i = 1 to scale do
        let h = open_or_fail api ~path ~create:true in
        (* edit session: read the document, append, rewrite a section *)
        h.Api.seek ~pos:0;
        for _ = 1 to 10 do
          ignore (h.Api.read ~bytes:512)
        done;
        h.Api.seek ~pos:(i * 128 mod 2048);
        for _ = 1 to 3 do
          ignore (h.Api.write ~bytes:512)
        done;
        h.Api.close ();
        api.Api.compute ~units:12
      done)

(* --- File Intensive 2: many small records (IBM Works ToDo) ---------------- *)

let file_intensive_2 scale (api : Api.t) =
  api.Api.spawn ~name:"todo" (fun api ->
      for i = 1 to scale do
        let path = Printf.sprintf "%s/todo%03d.rec" api.Api.root (i mod 50) in
        let h = open_or_fail api ~path ~create:true in
        ignore (h.Api.write ~bytes:128);
        h.Api.close ();
        let h = open_or_fail api ~path ~create:false in
        ignore (h.Api.read ~bytes:128);
        h.Api.seek ~pos:0;
        ignore (h.Api.read ~bytes:64);
        ignore (h.Api.read ~bytes:64);
        h.Api.close ();
        if i mod 2 = 0 then api.Api.f_unlink ~path;
        api.Api.compute ~units:6
      done)

(* --- Graphics: Klondike at three intensities ------------------------------ *)

(* mostly user-level: compute + direct screen-buffer stores, with a
   working set of card images that grows with intensity *)
let graphics ~frames ~ws_bytes ~rects (api : Api.t) =
  api.Api.spawn ~name:"klondike" (fun api ->
      let ws = if ws_bytes > 0 then api.Api.alloc ~bytes:ws_bytes else 0 in
      for frame = 1 to frames do
        (* walk a slice of the card images *)
        if ws_bytes > 0 then begin
          let slice = ws_bytes / 8 in
          let off = (frame * slice) mod (ws_bytes - slice + 1) in
          let rec touch_slice pos =
            if pos < off + slice then begin
              api.Api.touch ~addr:(ws + pos) ~write:(frame mod 4 = 0)
                ~bytes:2048;
              touch_slice (pos + 4096)
            end
          in
          touch_slice off
        end;
        api.Api.compute ~units:40;
        for r = 1 to rects do
          api.Api.draw
            ~x:(r * 37 mod 560)
            ~y:(r * 53 mod 370)
            ~w:71 ~h:96  (* a card *)
        done
      done)

(* --- PM Tasking: window-message ping-pong (Swp32 / Wind32) ---------------- *)

let pm_tasking ~processes ~messages ~draw_every (api : Api.t) =
  (* the hub process owns a reply queue; each peer echoes *)
  let hub_q = ref None in
  let peer_qs = Array.make processes None in
  api.Api.spawn ~name:"pm-hub" (fun api ->
      let q = api.Api.make_queue ~name:"hub" in
      hub_q := Some q;
      (* wait for the peers to come up *)
      let rec wait_peers () =
        if Array.exists Option.is_none peer_qs then begin
          api.Api.yield ();
          wait_peers ()
        end
      in
      wait_peers ();
      for m = 1 to messages do
        let peer = Option.get peer_qs.(m mod processes) in
        peer.Api.post m;
        ignore (q.Api.wait ());
        api.Api.compute ~units:4;
        if m mod draw_every = 0 then
          api.Api.draw ~x:(m mod 500) ~y:(m mod 380) ~w:40 ~h:30
      done;
      (* shut the peers down *)
      Array.iter (fun q -> (Option.get q).Api.post 0) peer_qs);
  for p = 0 to processes - 1 do
    api.Api.spawn ~name:(Printf.sprintf "pm-peer%d" p) (fun api ->
        let q = api.Api.make_queue ~name:(Printf.sprintf "peer%d" p) in
        peer_qs.(p) <- Some q;
        let rec serve () =
          let v = q.Api.wait () in
          if v <> 0 then begin
            api.Api.compute ~units:3;
            (match !hub_q with
            | Some hq -> hq.Api.post v
            | None -> ());
            serve ()
          end
        in
        serve ())
  done

(* --- the seven rows -------------------------------------------------------- *)

let mib n = n * 1024 * 1024

let all =
  [
    {
      id = "File Intensive 1";
      app = "IBM Works Applications";
      scale = 800;
      body = (fun api -> file_intensive_1 800 api);
    };
    {
      id = "File Intensive 2";
      app = "IBM Works ToDo";
      scale = 800;
      body = (fun api -> file_intensive_2 800 api);
    };
    {
      id = "Graphics Low";
      app = "Klondike";
      scale = 30;
      body = graphics ~frames:30 ~ws_bytes:(mib 1) ~rects:12;
    };
    {
      id = "Graphics Medium";
      app = "Klondike";
      scale = 45;
      body = graphics ~frames:45 ~ws_bytes:(mib 4) ~rects:20;
    };
    {
      id = "Graphics High";
      app = "Klondike";
      scale = 60;
      body = graphics ~frames:60 ~ws_bytes:(mib 16) ~rects:28;
    };
    {
      id = "PM Tasking Medium";
      app = "Swp32";
      scale = 150;
      body = pm_tasking ~processes:1 ~messages:150 ~draw_every:10;
    };
    {
      id = "PM Tasking High";
      app = "Wind32";
      scale = 300;
      body = pm_tasking ~processes:3 ~messages:300 ~draw_every:6;
    };
  ]

let find id = List.find_opt (fun s -> s.id = id) all

(* Elapsed time of the application, as the paper's benchmarks measured
   it: start to the last workload thread's completion.  Background disk
   write-back continuing after the application exits is not billed. *)
let run (api : Api.t) spec =
  let t0 = Machine.now api.Api.machine in
  let finish = ref t0 in
  let wrapped =
    {
      api with
      Api.spawn =
        (fun ~name body ->
          api.Api.spawn ~name (fun inner ->
              body { inner with Api.spawn = api.Api.spawn };
              finish := max !finish (Machine.now api.Api.machine)));
    }
  in
  spec.body wrapped;
  api.Api.go ();
  !finish - t0

type row = {
  row_id : string;
  wpos_cycles : int;
  native_cycles : int;
  ratio : float;
}

let compare_systems ~wpos ~native spec =
  let wpos_cycles = run wpos spec in
  let native_cycles = run native spec in
  {
    row_id = spec.id;
    wpos_cycles;
    native_cycles;
    ratio = float_of_int wpos_cycles /. float_of_int native_cycles;
  }

let overall rows =
  let logs = List.map (fun r -> log r.ratio) rows in
  exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length rows))
