(* Machlint's own test suite: the known-bad fixtures must each trip
   exactly the rule they are named for, the known-clean twins must stay
   silent, and the allow-annotation must suppress findings.

   Fixtures live in test/lint_fixtures/ (a directory the tree scan
   skips) and only need to parse — they are linted file by file through
   the library entry point, same code path as bin/machlint. *)

(* dune runtest runs us in test/; dune exec from the root does not *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let fixture name = Filename.concat fixture_dir name

let lint_file name =
  let r = Lint.run ~roots:[ fixture name ] () in
  r.Lint.r_findings

let rules_of findings =
  List.map (fun f -> f.Lint.Report.f_rule) findings
  |> List.sort_uniq compare

let check_bad name rule () =
  let fs = lint_file name in
  Alcotest.(check bool)
    (Printf.sprintf "%s trips %s" name rule)
    true
    (List.mem rule (rules_of fs));
  (* a known-bad must never be reported as anything-goes noise: every
     finding carries the fixture's path (a file of it, for a directory
     fixture) and a real line *)
  List.iter
    (fun f ->
      Alcotest.(check bool) "finding names the fixture" true
        (String.starts_with ~prefix:(fixture name) f.Lint.Report.f_file);
      Alcotest.(check bool) "finding has a line" true (f.Lint.Report.f_line > 0))
    fs

let check_clean name () =
  match lint_file name with
  | [] -> ()
  | fs ->
      Alcotest.failf "%s should be clean, got: %s" name
        (String.concat "; " (List.map Lint.Report.to_line fs))

(* The per-rule pairing: each rule has one fixture built to trip it and
   one twin built to skate as close as possible without tripping. *)
let pairs =
  [
    ("bad_linearity.ml", "clean_linearity.ml", Lint.Report.rule_linearity);
    ("bad_lockorder.ml", "clean_lockorder.ml", Lint.Report.rule_lockorder);
    ("bad_noblock.ml", "clean_noblock.ml", Lint.Report.rule_noblock);
    ("bad_heartbeat.ml", "clean_heartbeat.ml", Lint.Report.rule_noblock);
    ("bad_await.ml", "clean_await.ml", Lint.Report.rule_noblock);
    ("bad_interface.ml", "clean_interface.ml", Lint.Report.rule_interface);
    (* directories: the rule needs an interface, its own implementation
       and another unit *)
    ("bad_export", "clean_export", Lint.Report.rule_export);
    (* the rule looks at lib/machine and lib/mach only, so these are
       small trees *)
    ("bad_polycompare", "clean_polycompare", Lint.Report.rule_polycompare);
  ]

(* Each bad fixture packs several shapes of its violation (use-after-
   remap AND ool-Move AND double-move, say): assert multiplicity so a
   regression that keeps one detector but loses another still fails. *)
let test_bad_counts () =
  List.iter
    (fun (bad, expected_min) ->
      let n = List.length (lint_file bad) in
      if n < expected_min then
        Alcotest.failf "%s: expected >= %d findings, got %d" bad expected_min n)
    [
      ("bad_linearity.ml", 3);
      ("bad_lockorder.ml", 2);
      ("bad_noblock.ml", 4);
      ("bad_heartbeat.ml", 3);
      ("bad_await.ml", 1);
      ("bad_interface.ml", 2);
      ("bad_export", 2);
      ("bad_qualified", 1);
      ("bad_polycompare", 4);
    ]

(* Findings are deterministic: two runs over the same corpus agree. *)
let test_deterministic () =
  let once () =
    List.concat_map (fun (b, _, _) -> lint_file b) pairs
    |> List.map Lint.Report.to_line
  in
  Alcotest.(check (list string)) "stable across runs" (once ()) (once ())

(* The real-tree violations machlint's first run reported (unanswered
   DD_r_done/OS2_r_ok acks, P_error replies silently dropped by client
   stubs) were fixed in these four files: pin each one individually so
   a revert resurfaces as a named failure here, not only as a generic
   @lint break.  Tree-relative paths: resolved from wherever the test
   runs; when the sources are not visible at all (a fully sandboxed
   run) the @lint alias still covers the tree. *)
let test_fixed_files_stay_clean () =
  let root =
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "lib"))
      [ ".."; "../.."; "." ]
  in
  match root with
  | None -> ()
  | Some root ->
      List.iter
        (fun rel ->
          let path = Filename.concat root rel in
          if Sys.file_exists path then
            match (Lint.run ~roots:[ path ] ()).Lint.r_findings with
            | [] -> ()
            | fs ->
                Alcotest.failf "%s regressed: %s" rel
                  (String.concat "; " (List.map Lint.Report.to_line fs)))
        [
          "lib/drivers/disk_driver.ml";
          "lib/personalities/os2.ml";
          "lib/services/name_service.ml";
          "lib/workloads/micro.ml";
        ]

(* A syntactically broken file is a finding, not a crash. *)
let test_syntax_error_is_finding () =
  let path = Filename.temp_file "machlint_fixture" ".ml" in
  let oc = open_out path in
  output_string oc "let broken = (\n";
  close_out oc;
  let r = Lint.run ~roots:[ path ] () in
  Sys.remove path;
  match r.Lint.r_findings with
  | [ f ] ->
      Alcotest.(check string) "syntax rule" Lint.Report.rule_syntax
        f.Lint.Report.f_rule
  | fs -> Alcotest.failf "expected one syntax finding, got %d" (List.length fs)

let suite =
  List.concat_map
    (fun (bad, clean, rule) ->
      [
        Alcotest.test_case (rule ^ " known-bad") `Quick (check_bad bad rule);
        Alcotest.test_case (rule ^ " known-clean") `Quick (check_clean clean);
      ])
    pairs
  @ [
      (* a qualified reference counts for its own module's val only *)
      Alcotest.test_case "unused-export qualified known-bad" `Quick
        (check_bad "bad_qualified" Lint.Report.rule_export);
      Alcotest.test_case "unused-export qualified known-clean" `Quick
        (check_clean "clean_qualified");
      Alcotest.test_case "known-bads keep all their shapes" `Quick
        test_bad_counts;
      Alcotest.test_case "findings are deterministic" `Quick test_deterministic;
      Alcotest.test_case "fixed real-tree files stay clean" `Quick
        test_fixed_files_stay_clean;
      Alcotest.test_case "syntax error is a finding" `Quick
        test_syntax_error_is_finding;
    ]

let () = Alcotest.run "machlint" [ ("machlint", suite) ]
