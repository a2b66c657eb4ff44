(* machlint — build-time static analysis for the multi-server tree.

   Usage: machlint [--quiet] [--bench [FILE]] [DIR|FILE]...
               (default roots: lib bin bench test perfbench examples)

   Findings print one per line as `file:line rule message`; exit status
   is 1 if anything was found.  `dune build @lint` runs this over the
   whole tree and is wired into `dune runtest`.

   --bench additionally writes BENCH_lint.json (or FILE): scan size,
   findings by rule and the deterministic analysis-cycle model, under
   the provenance envelope every BENCH writer shares (Run_meta.envelope)
   — so the A/B harness can regression-gate the analyzer like any
   experiment. *)

let bench_json r roots =
  let open Bench_json in
  Run_meta.envelope "machlint"
    [ ("roots", Arr (List.map (fun x -> Str x) roots));
      ("files", int r.Lint.r_files); ("definitions", int r.Lint.r_defs);
      ("ast_nodes", int r.Lint.r_nodes);
      ("analysis_cycles", int r.Lint.r_cycles);
      ( "findings",
        Obj (List.map (fun (rule, n) -> (rule, int n))
               (Lint.Report.by_rule r.Lint.r_findings)) );
      ("findings_total", int (List.length r.Lint.r_findings)) ]
  |> to_string

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quiet = List.mem "--quiet" args in
  let rec split_bench acc = function
    | "--bench" :: rest -> (
        match rest with
        | file :: rest' when Filename.check_suffix file ".json" ->
            (Some file, List.rev_append acc rest')
        | _ -> (Some "BENCH_lint.json", List.rev_append acc rest))
    | a :: rest -> split_bench (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let bench, args = split_bench [] args in
  let roots =
    match List.filter (fun a -> a <> "--quiet") args with
    | [] -> [ "lib"; "bin"; "bench"; "test"; "perfbench"; "examples" ]
    | l -> l
  in
  let r = Lint.run ~roots () in
  List.iter
    (fun f -> print_endline (Lint.Report.to_line f))
    r.Lint.r_findings;
  (match bench with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (bench_json r roots);
      close_out oc;
      if not quiet then
        Printf.eprintf "machlint: wrote %s\n%!" path);
  if not quiet then
    Printf.eprintf
      "machlint: %d files, %d definitions, %d AST nodes, %d findings\n%!"
      r.Lint.r_files r.Lint.r_defs r.Lint.r_nodes
      (List.length r.Lint.r_findings);
  exit (if r.Lint.r_findings = [] then 0 else 1)
