(* Property-based tests (qcheck) on core data structures and invariants. *)

let qtest = QCheck_alcotest.to_alcotest

(* --- cache: resident never exceeds capacity; hits imply residence ------- *)

let cache_capacity =
  QCheck.Test.make ~name:"cache residency bounded by capacity" ~count:100
    QCheck.(list (int_bound 0xffff))
    (fun addrs ->
      let c =
        Machine.Cache.create { Machine.Config.size = 512; line = 32; assoc = 2 }
      in
      List.iter (fun a -> ignore (Machine.Cache.access c a : bool)) addrs;
      Machine.Cache.resident c <= Machine.Cache.lines c)

let cache_hit_after_access =
  QCheck.Test.make ~name:"probe hits immediately after access" ~count:100
    QCheck.(int_bound 0xfffff)
    (fun addr ->
      let c =
        Machine.Cache.create
          { Machine.Config.size = 4096; line = 32; assoc = 2 }
      in
      ignore (Machine.Cache.access c addr : bool);
      Machine.Cache.probe c addr)

(* --- layout: allocations never overlap ----------------------------------- *)

let layout_no_overlap =
  QCheck.Test.make ~name:"layout allocations never overlap" ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) (int_range 1 20000))
    (fun sizes ->
      let l = Machine.Layout.create Machine.Config.ppc604_133 in
      List.iteri
        (fun i size ->
          ignore
            (Machine.Layout.alloc l
               ~name:(Printf.sprintf "r%d" i)
               ~kind:Machine.Layout.Data ~size
              : Machine.Layout.region))
        sizes;
      let regions = Machine.Layout.regions l in
      List.for_all
        (fun (a : Machine.Layout.region) ->
          List.for_all
            (fun (b : Machine.Layout.region) ->
              a == b
              || a.Machine.Layout.base + a.Machine.Layout.size
                 <= b.Machine.Layout.base
              || b.Machine.Layout.base + b.Machine.Layout.size
                 <= a.Machine.Layout.base)
            regions)
        regions)

(* --- event queue: delivery respects time order ---------------------------- *)

let event_queue_ordered =
  QCheck.Test.make ~name:"event queue fires in time order" ~count:100
    QCheck.(list (int_bound 10000))
    (fun times ->
      let q = Machine.Event_queue.create () in
      let fired = ref [] in
      List.iter
        (fun t -> Machine.Event_queue.schedule q ~at:t (fun () -> fired := t :: !fired))
        times;
      ignore (Machine.Event_queue.run_due q ~now:20000 : int);
      let order = List.rev !fired in
      List.sort compare order = order
      && List.length order = List.length times)

(* --- name db: bind/resolve round trip; unbind removes ---------------------- *)

let path_gen =
  QCheck.Gen.(
    map
      (fun parts -> "/" ^ String.concat "/" parts)
      (list_size (1 -- 4)
         (oneofl [ "a"; "b"; "srv"; "dev"; "x1"; "files"; "net" ])))

let name_db_roundtrip =
  QCheck.Test.make ~name:"name db bind/resolve round trip" ~count:100
    (QCheck.make path_gen) (fun path ->
      let db = Mk_services.Name_db.create () in
      match Mk_services.Name_db.bind db ~path ~attributes:[ ("k", "v") ] () with
      | Error _ -> true  (* duplicate path components collapsing: skip *)
      | Ok () -> (
          match Mk_services.Name_db.resolve db ~path with
          | Some e ->
              e.Mk_services.Name_db.attributes = [ ("k", "v") ]
              && Mk_services.Name_db.unbind db ~path
              && Mk_services.Name_db.resolve db ~path = None
          | None -> false))

(* --- FAT name validation: accepted names round-trip through the format ---- *)

let fat_name_gen =
  QCheck.Gen.(
    map2
      (fun base ext ->
        if ext = "" then base else base ^ "." ^ ext)
      (string_size (1 -- 10) ~gen:(oneofl [ 'a'; 'B'; '3'; '_'; '-'; '%' ]))
      (string_size (0 -- 4) ~gen:(oneofl [ 'x'; 'Y'; '9' ])))

let fat_names_consistent =
  QCheck.Test.make ~name:"fat validation is idempotent and length-correct"
    ~count:200 (QCheck.make fat_name_gen) (fun name ->
      match Fileserver.Fat.valid_name name with
      | Ok canonical ->
          String.length canonical <= 12
          && Fileserver.Fat.valid_name canonical = Ok canonical
      | Error _ -> true)

(* --- file systems: write/read round trip at random offsets ----------------- *)

let fs_roundtrip mkfs mount name =
  QCheck.Test.make ~name ~count:20
    QCheck.(pair (int_bound 6000) (int_range 1 3000))
    (fun (off, len) ->
      let k = Test_util.kernel_on () in
      let disk = k.Mach.Kernel.machine.Machine.disk in
      mkfs disk;
      let cache = Fileserver.Block_cache.create k disk ~capacity:512 () in
      let result = ref false in
      let t = Mach.Kernel.task_create k ~name:"t" () in
      ignore
        (Mach.Kernel.thread_spawn k t ~name:"t" (fun () ->
             match mount cache with
             | Error _ -> ()
             | Ok pfs ->
                 let open Fileserver.Fs_types in
                 (match pfs.pfs_create ~dir:pfs.pfs_root "F" ~is_dir:false with
                 | Error _ -> ()
                 | Ok id -> (
                     let payload =
                       Bytes.init len (fun i -> Char.chr (33 + ((off + i) mod 90)))
                     in
                     match pfs.pfs_write id ~off payload with
                     | Error _ -> ()
                     | Ok n -> (
                         if n <> len then ()
                         else
                           match pfs.pfs_read id ~off ~len with
                           | Ok back -> result := Bytes.equal back payload
                           | Error _ -> ()))))
          : Mach.Ktypes.thread);
      Mach.Kernel.run k;
      !result)

let hpfs_roundtrip =
  fs_roundtrip
    (fun d -> Fileserver.Hpfs.mkfs d ())
    (fun c -> Fileserver.Hpfs.mount c ())
    "hpfs write/read round trip at random offsets"

let jfs_roundtrip =
  fs_roundtrip
    (fun d -> Fileserver.Jfs.mkfs d ())
    (fun c -> Fileserver.Jfs.mount c ())
    "jfs write/read round trip at random offsets"

(* --- VM: resident pages never exceed the pool; faults are idempotent ------- *)

let vm_residency_bounded =
  QCheck.Test.make ~name:"vm residency never exceeds the page pool" ~count:20
    QCheck.(list_of_size Gen.(1 -- 30) (pair (int_bound 60) bool))
    (fun touches ->
      let config =
        Machine.Config.with_memory Machine.Config.pentium_133
          ~bytes:(2 * 1024 * 1024)
      in
      let k = Mach.Kernel.boot (Machine.create config) in
      let sys = k.Mach.Kernel.sys in
      let t = Mach.Kernel.task_create k ~name:"t" () in
      let holds = ref true in
      ignore
        (Mach.Kernel.thread_spawn k t ~name:"t" (fun () ->
             let bytes = 64 * 4096 in
             let addr = Mach.Vm.allocate sys t ~bytes () in
             List.iter
               (fun (page, write) ->
                 Mach.Vm.touch sys t
                   ~addr:(addr + (page * 4096))
                   ~write ~bytes:8 ();
                 if Mach.Vm.resident_pages sys > sys.Mach.Sched.page_limit + 1
                 then holds := false)
               touches)
          : Mach.Ktypes.thread);
      Mach.Kernel.run k;
      !holds)

(* --- runtime malloc: distinct live blocks never overlap --------------------- *)

let malloc_no_overlap =
  QCheck.Test.make ~name:"runtime malloc blocks never overlap" ~count:50
    QCheck.(list_of_size Gen.(1 -- 25) (int_range 1 2000))
    (fun sizes ->
      let k = Test_util.kernel_on () in
      let rt = Mk_services.Runtime.install k in
      let task = Mach.Kernel.task_create k ~name:"t" () in
      let blocks =
        List.map (fun b -> (Mk_services.Runtime.malloc rt task ~bytes:b, b)) sizes
      in
      List.for_all
        (fun (a, sa) ->
          List.for_all
            (fun (b, sb) -> a = b || a + sa <= b || b + sb <= a)
            blocks)
        blocks)

(* --- machcheck: rights are conserved under random churn and faults -------- *)

let rights_op_gen =
  (* (op, port index, task index, name selector) *)
  QCheck.(
    quad (int_bound 5) (int_bound 3) (int_bound 1) (int_bound 7))

let rights_conservation =
  QCheck.Test.make
    ~name:"machcheck shadow rights mirror the namespaces under churn" ~count:30
    QCheck.(pair small_nat (list_of_size Gen.(5 -- 40) rights_op_gen))
    (fun (seed, ops) ->
      let k = Test_util.kernel_on () in
      let sys = k.Mach.Kernel.sys in
      let chk = Check.create () in
      Mach.Sched.enable_checks sys chk;
      (* seeded faults: drop a fifth of the echo traffic in transit so the
         timeout/error paths churn reply ports too *)
      let plan = Mach.Fault.create ~seed () in
      Mach.Fault.set_rate plan ~site:"echo" ~ppm:200_000
        Mach.Fault.Drop_message;
      sys.Mach.Sched.faults <- Some plan;
      let owner = Mach.Kernel.task_create k ~name:"owner" () in
      let ta = Mach.Kernel.task_create k ~name:"ta" () in
      let tb = Mach.Kernel.task_create k ~name:"tb" () in
      let tasks = [| ta; tb |] in
      let ports =
        Array.init 4 (fun i ->
            Mach.Port.allocate sys ~receiver:owner
              ~name:(Printf.sprintf "pool%d" i))
      in
      let srv = Mach.Kernel.task_create k ~name:"echo-srv" () in
      let echo = Mach.Port.allocate sys ~receiver:srv ~name:"echo" in
      ignore
        (Mach.Kernel.thread_spawn k srv ~name:"echo" (fun () ->
             Mach.Ipc.serve sys echo (fun _ -> Mach.Ktypes.simple_message ()))
          : Mach.Ktypes.thread);
      let pick_name (task : Mach.Ktypes.task) sel =
        let names =
          Hashtbl.fold (fun n _ acc -> n :: acc) task.Mach.Ktypes.namespace []
          |> List.sort compare
        in
        match names with
        | [] -> None
        | l -> Some (List.nth l (sel mod List.length l))
      in
      Test_util.run_in_thread k (fun () ->
          List.iter
            (fun (op, pi, ti, sel) ->
              let p = ports.(pi) and t = tasks.(ti) in
              match op with
              | 0 when not p.Mach.Ktypes.dead ->
                  ignore (Mach.Port.insert_right sys t p Mach.Ktypes.Send_right : int)
              | 1 when not p.Mach.Ktypes.dead ->
                  ignore
                    (Mach.Port.insert_right sys t p Mach.Ktypes.Send_once_right : int)
              | 2 ->
                  ignore
                    (Mach.Port.move_right sys ~from:t ~into:tasks.(1 - ti) p
                      : Mach.Ktypes.kern_return)
              | 3 -> (
                  match pick_name t sel with
                  | Some name ->
                      ignore
                        (Mach.Port.deallocate_right sys t name
                          : Mach.Ktypes.kern_return)
                  | None -> ())
              | 4 when not p.Mach.Ktypes.dead -> Mach.Port.destroy sys p
              | _ ->
                  ignore
                    (Mach.Ipc.call sys echo ~deadline:20_000
                       (Mach.Ktypes.simple_message ())))
            ops);
      Mach.Kernel.run k;
      let rep = Check.report chk in
      (* conservation: the shadow agrees with every namespace exactly, and
         nothing was freed twice or weakened *)
      List.for_all
        (fun (t : Mach.Ktypes.task) ->
          Mach.Mcheck.live_rights sys t
          = Hashtbl.length t.Mach.Ktypes.namespace)
        [ owner; ta; tb; srv ]
      && (Check.count rep "right_double_frees") = 0
      && (Check.count rep "right_downgrades") = 0)

(* --- zero-copy transfers: stamps arrive intact and never alias ------------- *)

(* Random sequences of the three out-of-line transfer shapes (donate,
   snapshot-share, lazy Mach copy).  After any of them the receiver must
   read the stamp the sender wrote, a move must leave the sender with
   zero-fill memory, and post-transfer writes on either side must stay
   private — page remapping is an optimization, never a channel. *)
let[@machlint.allow "port-linearity"] remap_transfer_correct =
  QCheck.Test.make ~name:"remap transfers deliver stamps and never alias"
    ~count:30
    QCheck.(
      list_of_size Gen.(1 -- 12) (pair (int_bound 2) (int_range 1 10_000)))
    (fun ops ->
      let k = Test_util.kernel_on () in
      let sys = k.Mach.Kernel.sys in
      let src = Mach.Kernel.task_create k ~name:"sender" () in
      let dst = Mach.Kernel.task_create k ~name:"receiver" () in
      let holds = ref true in
      let expect cond = if not cond then holds := false in
      ignore
        (Mach.Kernel.thread_spawn k src ~name:"sender" (fun () ->
             List.iter
               (fun (mode, stamp) ->
                 let bytes = Mach.Ktypes.page_size in
                 let a = Mach.Vm.allocate sys src ~bytes () in
                 Mach.Vm.write_stamp sys src ~addr:a stamp;
                 let b =
                   match mode with
                   | 0 ->
                       Mach.Vm.remap_move sys ~src_task:src ~addr:a ~bytes
                         ~dst_task:dst
                   | 1 ->
                       Mach.Vm.remap_cow sys ~src_task:src ~addr:a ~bytes
                         ~dst_task:dst
                   | _ ->
                       Mach.Vm.virtual_copy sys ~src_task:src ~addr:a ~bytes
                         ~dst_task:dst
                 in
                 expect (Mach.Vm.read_stamp sys dst ~addr:b = stamp);
                 if mode = 0 then
                   (* donation leaves the sender fresh zero-fill *)
                   expect (Mach.Vm.read_stamp sys src ~addr:a = 0);
                 Mach.Vm.write_stamp sys src ~addr:a (stamp + 1);
                 expect (Mach.Vm.read_stamp sys dst ~addr:b = stamp);
                 Mach.Vm.write_stamp sys dst ~addr:b (stamp + 2);
                 expect (Mach.Vm.read_stamp sys src ~addr:a = stamp + 1);
                 Mach.Vm.deallocate sys src ~addr:a;
                 Mach.Vm.deallocate sys dst ~addr:b)
               ops)
          : Mach.Ktypes.thread);
      Mach.Kernel.run k;
      !holds)

let suite =
  List.map qtest
    [
      cache_capacity;
      cache_hit_after_access;
      layout_no_overlap;
      event_queue_ordered;
      name_db_roundtrip;
      fat_names_consistent;
      hpfs_roundtrip;
      jfs_roundtrip;
      vm_residency_bounded;
      malloc_no_overlap;
      rights_conservation;
      remap_transfer_correct;
    ]
