let () =
  Alcotest.run "wpos-repro"
    [
      ("machine", Test_machine.suite);
      ("mach", Test_mach.suite);
      ("services", Test_services.suite);
      ("fileserver", Test_fileserver.suite);
      ("monolithic", Test_monolithic.suite);
      ("finegrain-net", Test_finegrain.suite);
      ("drivers", Test_drivers.suite);
      ("personalities", Test_personalities.suite);
      ("wpos", Test_wpos.suite);
      ("workloads", Test_workloads.suite);
      ("perf-paths", Test_perf_paths.suite);
      ("properties", Test_properties.suite);
      ("edge-cases", Test_more.suite);
      ("faults", Test_faults.suite);
      ("machcheck", Test_check.suite);
      ("recovery", Test_recovery.suite);
      ("smp", Test_smp.suite);
      ("vfs", Test_vfs.suite);
      ("mount-lock", Test_mount_lock.suite);
      ("rpc-local", Test_rpc_local.suite);
      ("net", Test_net.suite);
      ("alloc", Test_alloc.suite);
    ]
