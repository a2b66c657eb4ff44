(* Tests for the driver architectures and the resource manager. *)

module D = Drivers

let kernel () = Test_util.kernel_on ()

let test_resource_manager_grant_conflict () =
  let k = kernel () in
  let rm = D.Resource_manager.create k in
  (match D.Resource_manager.request rm ~driver:"a" (D.Resource_manager.Irq_line 9) () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* refusing holder blocks the request *)
  (match D.Resource_manager.request rm ~driver:"b" (D.Resource_manager.Irq_line 9) () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "conflicting grant issued");
  Alcotest.(check (option string)) "holder unchanged" (Some "a")
    (D.Resource_manager.holder rm (D.Resource_manager.Irq_line 9));
  Alcotest.(check int) "a yield was requested" 1
    (D.Resource_manager.yields_requested rm)

let test_resource_manager_yield () =
  let k = kernel () in
  let rm = D.Resource_manager.create k in
  (match
     D.Resource_manager.request rm ~driver:"polite"
       (D.Resource_manager.Dma_channel 3)
       ~on_yield:(fun () -> true)
       ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match D.Resource_manager.request rm ~driver:"greedy" (D.Resource_manager.Dma_channel 3) () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option string)) "ownership moved" (Some "greedy")
    (D.Resource_manager.holder rm (D.Resource_manager.Dma_channel 3))

let test_io_range_overlap () =
  let k = kernel () in
  let rm = D.Resource_manager.create k in
  ignore
    (D.Resource_manager.request rm ~driver:"com1"
       (D.Resource_manager.Io_range { base = 0x3f8; len = 8 })
       ());
  match
    D.Resource_manager.request rm ~driver:"rogue"
      (D.Resource_manager.Io_range { base = 0x3fc; len = 8 })
      ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlapping I/O range granted"

let read_via arch =
  let k = kernel () in
  let m = k.Mach.Kernel.machine in
  (* recognizable disk contents *)
  Machine.Disk.write_image m.Machine.disk ~block:7 (Bytes.make 512 'Q');
  let rm = D.Resource_manager.create k in
  let d =
    match D.Disk_driver.start k rm ~arch with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let t = Mach.Kernel.task_create k ~name:"app" () in
  let got = ref Bytes.empty in
  Test_util.spawn k t "reader" (fun () ->
      got := D.Disk_driver.read_blocks d ~block:7 ~count:1);
  Mach.Kernel.run k;
  (d, !got)

let test_drivers_deliver_data () =
  List.iter
    (fun arch ->
      let d, data = read_via arch in
      Alcotest.(check int) "512 bytes" 512 (Bytes.length data);
      Alcotest.(check char) "content" 'Q' (Bytes.get data 0);
      Alcotest.(check int) "one request" 1 (D.Disk_driver.requests d);
      Alcotest.(check int) "one interrupt" 1 (D.Disk_driver.interrupts_taken d))
    [ D.Disk_driver.User_level; D.Disk_driver.Kernel_bsd; D.Disk_driver.Ooddm ]

let test_user_level_has_task () =
  let d, _ = read_via D.Disk_driver.User_level in
  Alcotest.(check bool) "driver task exists" true
    (Option.is_some (D.Disk_driver.driver_task d));
  let d2, _ = read_via D.Disk_driver.Kernel_bsd in
  Alcotest.(check bool) "in-kernel: no task" true
    (Option.is_none (D.Disk_driver.driver_task d2))

let test_write_roundtrip () =
  let k = kernel () in
  let m = k.Mach.Kernel.machine in
  let rm = D.Resource_manager.create k in
  let d =
    match D.Disk_driver.start k rm ~arch:D.Disk_driver.Kernel_bsd with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let t = Mach.Kernel.task_create k ~name:"app" () in
  Test_util.spawn k t "writer" (fun () ->
      D.Disk_driver.write_blocks d ~block:20 (Bytes.make 1024 'W'));
  Mach.Kernel.run k;
  let back = Machine.Disk.read_image m.Machine.disk ~block:20 ~count:2 in
  Alcotest.(check char) "persisted" 'W' (Bytes.get back 1023)

let test_display_driver () =
  let k = kernel () in
  let rm = D.Resource_manager.create k in
  let d =
    match D.Display_driver.start k rm with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let t = Mach.Kernel.task_create k ~name:"gui" () in
  Test_util.spawn k t "draw" (fun () ->
      D.Display_driver.fill d ~x:0 ~y:0 ~w:10 ~h:10 ~pixel:'F');
  Mach.Kernel.run k;
  Alcotest.(check char) "pixel" 'F'
    (Machine.Framebuffer.pixel (D.Display_driver.framebuffer d) ~x:5 ~y:5);
  Alcotest.(check int) "fill count" 1 (D.Display_driver.fills d);
  (* the aperture is claimed in the resource manager *)
  let fb_region = Machine.Framebuffer.region (D.Display_driver.framebuffer d) in
  Alcotest.(check (option string)) "aperture held" (Some "display")
    (D.Resource_manager.holder rm
       (D.Resource_manager.Io_range
          { base = fb_region.Machine.Layout.base;
            len = fb_region.Machine.Layout.size }))

let suite =
  [
    Alcotest.test_case "rm grant conflict" `Quick
      test_resource_manager_grant_conflict;
    Alcotest.test_case "rm yield protocol" `Quick test_resource_manager_yield;
    Alcotest.test_case "rm io range overlap" `Quick test_io_range_overlap;
    Alcotest.test_case "drivers deliver data" `Quick test_drivers_deliver_data;
    Alcotest.test_case "user-level has a task" `Quick test_user_level_has_task;
    Alcotest.test_case "write roundtrip" `Quick test_write_roundtrip;
    Alcotest.test_case "display driver" `Quick test_display_driver;
  ]
