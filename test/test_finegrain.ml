(* Tests for the object-runtime simulation and the networking service
   built on it. *)

let kernel () = Test_util.kernel_on ()

let test_class_hierarchy_and_dispatch () =
  let k = kernel () in
  let rt = Finegrain.create k ~style:Finegrain.Fine_grained ~name:"t" in
  let base = Finegrain.define_class rt ~name:"TObject" () in
  let mid = Finegrain.define_class rt ~name:"TStream" ~super:base () in
  let leaf = Finegrain.define_class rt ~name:"TSocket" ~super:mid () in
  Alcotest.(check int) "depth" 3 (Finegrain.class_depth leaf);
  let o = Finegrain.new_object rt leaf in
  Finegrain.vcall rt o ~slot:1;
  Alcotest.(check int) "one dispatch counted" 1 (Finegrain.vcalls rt);
  Alcotest.(check int) "one live object" 1 (Finegrain.live_objects rt);
  Finegrain.delete_object rt o;
  Alcotest.(check int) "deleted" 0 (Finegrain.live_objects rt)

let test_fine_vs_coarse_costs () =
  let measure style =
    let k = kernel () in
    let m = k.Mach.Kernel.machine in
    let rt = Finegrain.create k ~style ~name:"t" in
    let base = Finegrain.define_class rt ~name:"A" () in
    let c1 = Finegrain.define_class rt ~name:"B" ~super:base () in
    let c2 = Finegrain.define_class rt ~name:"C" ~super:c1 () in
    let o = Finegrain.new_object rt c2 in
    (* warm *)
    Finegrain.invoke rt o ~work_units:64;
    let t0 = Machine.now m in
    Finegrain.invoke rt o ~work_units:256;
    (Machine.now m - t0, Finegrain.memory_footprint_bytes rt)
  in
  let fine_cycles, fine_mem = measure Finegrain.Fine_grained in
  let coarse_cycles, coarse_mem = measure Finegrain.Coarse in
  Alcotest.(check bool) "fine-grained slower" true (fine_cycles > coarse_cycles);
  Alcotest.(check bool) "fine-grained bigger" true (fine_mem > coarse_mem)

let test_udp_echo () =
  let k = kernel () in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  let echoed = ref (-1, -1) in
  Test_util.spawn k t "server" (fun () ->
      match Netserver.udp_socket net ~port:53 with
      | Error e -> Alcotest.fail e
      | Ok s ->
          let src, n = Netserver.udp_recv net s in
          Netserver.udp_send net s ~dst_port:src ~bytes:n);
  Test_util.spawn k t "client" (fun () ->
      match Netserver.udp_socket net ~port:5353 with
      | Error e -> Alcotest.fail e
      | Ok s ->
          Netserver.udp_send net s ~dst_port:53 ~bytes:99;
          echoed := Netserver.udp_recv net s);
  Mach.Kernel.run k;
  Alcotest.(check (pair int int)) "echo round trip" (53, 99) !echoed;
  Alcotest.(check int) "four packets walked the stack" 4
    (Netserver.packets_processed net)

let test_udp_port_conflict () =
  let k = kernel () in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  (match Netserver.udp_socket net ~port:80 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Netserver.udp_socket net ~port:80 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate bind succeeded"

let test_tcp_connection () =
  let k = kernel () in
  let net = Netserver.create k ~style:Finegrain.Fine_grained in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  let got = ref [] in
  Test_util.spawn k t "server" (fun () ->
      match Netserver.tcp_listen net ~port:8080 with
      | Error e -> Alcotest.fail e
      | Ok listener ->
          let c = Netserver.tcp_accept net listener in
          for _ = 1 to 3 do
            got := Netserver.tcp_recv net c :: !got
          done);
  Test_util.spawn k t "client" (fun () ->
      match Netserver.tcp_connect net ~dst_port:8080 with
      | Error e -> Alcotest.fail e
      | Ok c ->
          Alcotest.(check bool) "established" true (Netserver.established c);
          Netserver.tcp_send net c ~bytes:100;
          Netserver.tcp_send net c ~bytes:200;
          Netserver.tcp_send net c ~bytes:300);
  Mach.Kernel.run k;
  Alcotest.(check (list int)) "segments in order" [ 300; 200; 100 ] !got

let test_zero_copy_send () =
  let k = kernel () in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  let got = ref [] in
  Test_util.spawn k t "server" (fun () ->
      match Netserver.tcp_listen net ~port:80 with
      | Error e -> Alcotest.fail e
      | Ok l ->
          let c = Netserver.tcp_accept net l in
          for _ = 1 to 3 do
            got := Netserver.tcp_recv net c :: !got
          done);
  Test_util.spawn k t "client" (fun () ->
      match Netserver.tcp_connect net ~dst_port:80 with
      | Error e -> Alcotest.fail e
      | Ok c ->
          Netserver.tcp_send net c ~bytes:100;  (* below a page: copied *)
          Netserver.tcp_send net c ~bytes:8192;  (* page-sized: remapped *)
          Netserver.tcp_send_vec net c ~iov:[ 4096; 4096; 512 ]);
  Mach.Kernel.run k;
  Alcotest.(check (list int)) "all payloads arrive" [ 8704; 8192; 100 ] !got;
  Alcotest.(check int) "page-sized sends went zero-copy" 2
    (Netserver.zero_copy_sends net);
  (* remapped payloads are never checksummed byte by byte: of ~17 KB of
     payload only the copied 100-byte send plus per-layer headers ever
     cross the checksum loop *)
  Alcotest.(check bool) "payload bytes skipped the checksum"
    true
    (Netserver.checksum_bytes net < 4096)

let test_checksum_accounting () =
  let k = kernel () in
  let net = Netserver.create k ~style:Finegrain.Coarse in
  let t = Mach.Kernel.task_create k ~name:"t" () in
  Test_util.spawn k t "client" (fun () ->
      match Netserver.udp_socket net ~port:1000 with
      | Error e -> Alcotest.fail e
      | Ok s -> Netserver.udp_send net s ~dst_port:9 ~bytes:446);
  Mach.Kernel.run k;
  (* tx walk + rx walk of one 446-byte datagram + headers *)
  Alcotest.(check int) "checksummed bytes" 1000 (Netserver.checksum_bytes net)

(* Dispatch as Finegrain wrote it before it drove the CPU directly:
   every class-chain step builds a three-item list of charge steps and
   replays it.  Kept as the oracle the direct version must match cycle
   for cycle.  It restates Finegrain's layout rules: method bodies of
   96 B (fine) or 768 B (coarse), a class's offset seed is the hash of
   its name, and its vtable load lands at that seed's offset in the
   vtables region. *)
module Ref_dispatch = struct
  type klass = { name : string; super : klass option }

  let method_bytes = function
    | Finegrain.Fine_grained -> 96
    | Finegrain.Coarse -> 768

  let seed k = Hashtbl.hash k.name land 0xffff

  type step =
    | Fetch of { region : Machine.Layout.region; offset : int; bytes : int }
    | Load of { addr : int; bytes : int }
    | Stall of int

  let replay machine steps =
    let cpu = machine.Machine.cpu in
    List.iter
      (function
        | Fetch { region; offset; bytes } ->
            Machine.Cpu.fetch cpu region ~offset ~bytes
        | Load { addr; bytes } -> Machine.Cpu.load cpu ~addr ~bytes
        | Stall n -> Machine.Cpu.stall cpu n)
      steps

  let method_offset (text : Machine.Layout.region) k slot =
    let span = text.Machine.Layout.size - 1024 in
    ((seed k * 37) + (slot * 193)) * 61 mod span

  let vcall machine style ~text ~vtables k ~slot =
    match style with
    | Finegrain.Fine_grained ->
        let rec chain k slot =
          replay machine
            [
              Load
                {
                  addr = vtables.Machine.Layout.base + (seed k mod 8192);
                  bytes = 8;
                };
              Stall 5;
              Fetch
                {
                  region = text;
                  offset = method_offset text k slot;
                  bytes = method_bytes style + 32;
                };
            ];
          match k.super with Some s -> chain s (slot + 1) | None -> ()
        in
        chain k slot
    | Finegrain.Coarse ->
        replay machine
          [
            Fetch
              {
                region = text;
                offset = method_offset text k slot;
                bytes = method_bytes style;
              };
          ]

  let invoke machine style ~text ~vtables k ~work_units =
    match style with
    | Finegrain.Fine_grained ->
        for u = 1 to work_units do
          vcall machine style ~text ~vtables k ~slot:(u mod 16)
        done
    | Finegrain.Coarse ->
        for u = 1 to Int.max 1 ((work_units + 7) / 8) do
          vcall machine style ~text ~vtables k ~slot:(u mod 4)
        done
end

(* Two identical machines, one dispatching through Finegrain and one
   through the oracle, over seeded class depths (1-5), slots and work
   units, with the active CPU switching so SMP runs cross the bus and
   the coherence directory.  After every call each CPU's counters and
   exact clock must agree. *)
let test_dispatch_matches_reference () =
  List.iter
    (fun (style, ncpus, seed) ->
      let tag =
        match style with
        | Finegrain.Fine_grained -> "fine"
        | Finegrain.Coarse -> "coarse"
      in
      let what = Printf.sprintf "%s, %d CPUs, seed %d" tag ncpus seed in
      let rng = Random.State.make [| seed |] in
      let boot () =
        Test_util.kernel_on
          ~config:(Machine.Config.with_ncpus Machine.Config.ppc604_133 ~n:ncpus)
          ()
      in
      let ka = boot () and kb = boot () in
      let ma = ka.Mach.Kernel.machine and mb = kb.Mach.Kernel.machine in
      let rta = Finegrain.create ka ~style ~name:"diff"
      and rtb = Finegrain.create kb ~style ~name:"diff" in
      let region name =
        Option.get (Machine.Layout.find mb.Machine.layout name)
      in
      let text = region (Printf.sprintf "objrt:%s:diff.text" tag)
      and vtables = region (Printf.sprintf "objrt:%s:diff.vtables" tag) in
      (* six class chains; both runtimes construct the same objects *)
      let objects =
        List.init 6 (fun i ->
            let depth = 1 + Random.State.int rng 5 in
            let rec build level (sa, sb, sr) =
              if level > depth then (sa, sb, sr)
              else begin
                let name = Printf.sprintf "C%d.%d" i level in
                let ka = Finegrain.define_class rta ~name ?super:sa () in
                let kb = Finegrain.define_class rtb ~name ?super:sb () in
                build (level + 1)
                  (Some ka, Some kb, Some { Ref_dispatch.name; super = sr })
              end
            in
            match build 1 (None, None, None) with
            | Some ka, Some kb, Some kr ->
                (Finegrain.new_object rta ka, (Finegrain.new_object rtb kb, kr))
            | _ -> assert false)
        |> Array.of_list
      in
      let agree step =
        for i = 0 to ncpus - 1 do
          let ca = Machine.nth_cpu ma i and cb = Machine.nth_cpu mb i in
          let pa = Machine.Cpu.perf ca and pb = Machine.Cpu.perf cb in
          let where = Printf.sprintf "%s, step %d, cpu %d" what step i in
          if Machine.Perf.snapshot pa <> Machine.Perf.snapshot pb then
            Alcotest.failf "%s: counters differ" where;
          let smp p =
            [ Machine.Perf.coherence_misses p; Machine.Perf.bus_stall_cycles p ]
          in
          Alcotest.(check (list int)) (where ^ ": SMP counters") (smp pb) (smp pa);
          Alcotest.(check string)
            (where ^ ": clock")
            (Printf.sprintf "%h" (Machine.Cpu.now_exact cb))
            (Printf.sprintf "%h" (Machine.Cpu.now_exact ca))
        done
      in
      agree 0;
      for step = 1 to 300 do
        let cpu = Random.State.int rng ncpus in
        Machine.set_active ma cpu;
        Machine.set_active mb cpu;
        let oa, (_, kr) =
          objects.(Random.State.int rng (Array.length objects))
        in
        if Random.State.int rng 4 = 0 then begin
          let slot = Random.State.int rng 16 in
          Finegrain.vcall rta oa ~slot;
          Ref_dispatch.vcall mb style ~text ~vtables kr ~slot
        end
        else begin
          let work_units = Random.State.int rng 48 in
          Finegrain.invoke rta oa ~work_units;
          Ref_dispatch.invoke mb style ~text ~vtables kr ~work_units
        end;
        agree step
      done)
    [
      (Finegrain.Fine_grained, 1, 1);
      (Finegrain.Fine_grained, 4, 2);
      (Finegrain.Fine_grained, 4, 3);
      (Finegrain.Coarse, 1, 1);
      (Finegrain.Coarse, 4, 2);
      (Finegrain.Coarse, 4, 3);
    ]

(* A warm invoke allocates only the clock its cycle charges box: two
   charges per fine-grained chain step (the indirect-branch stall and
   the body's instructions), one per coarse call, 2 words each.  The
   list-building oracle above allocates 356 and 32 words for the same
   two calls. *)
let test_warm_invoke_allocation () =
  List.iter
    (fun (style, work_units, expected) ->
      let k = kernel () in
      let rt = Finegrain.create k ~style ~name:"t" in
      let base = Finegrain.define_class rt ~name:"A" () in
      let mid = Finegrain.define_class rt ~name:"B" ~super:base () in
      let leaf = Finegrain.define_class rt ~name:"C" ~super:mid () in
      let o = Finegrain.new_object rt leaf in
      let invoke () = Finegrain.invoke rt o ~work_units in
      invoke ();
      invoke ();
      let words f =
        let w0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. w0
      in
      let baseline = words (fun () -> ()) in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%d units: words" work_units)
        expected
        (words invoke -. baseline))
    [
      (* 4 units x 3 levels x 2 charges x 2 words *)
      (Finegrain.Fine_grained, 4, 48.);
      (* 2 calls x 1 charge x 2 words *)
      (Finegrain.Coarse, 16, 4.);
    ]

let suite =
  [
    Alcotest.test_case "class hierarchy+dispatch" `Quick
      test_class_hierarchy_and_dispatch;
    Alcotest.test_case "fine vs coarse costs" `Quick test_fine_vs_coarse_costs;
    Alcotest.test_case "udp echo" `Quick test_udp_echo;
    Alcotest.test_case "udp port conflict" `Quick test_udp_port_conflict;
    Alcotest.test_case "tcp connection" `Quick test_tcp_connection;
    Alcotest.test_case "checksum accounting" `Quick test_checksum_accounting;
    Alcotest.test_case "zero-copy send" `Quick test_zero_copy_send;
    Alcotest.test_case "dispatch matches the list-building reference" `Quick
      test_dispatch_matches_reference;
    Alcotest.test_case "warm invoke allocation" `Quick
      test_warm_invoke_allocation;
  ]
