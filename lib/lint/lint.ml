(* Machlint driver: scan directories, parse every .ml and .mli with
   compiler-libs, build the call graph once, run the six rules.

   The rules and their dynamic Machcheck counterparts:

     port-linearity  use-after-Move of donated pages/rights
                     (machcheck: rights sanitizer, buffer lifetime)
     lock-order      cycles in the static lock acquisition graph
                     (machcheck: wait-for-graph, at runtime)
     no-block        blocking reachable from IPI/interrupt/txn contexts
                     (machcheck: wait-for-graph)
     interface       open-variant message vocabulary complete (no
                     dynamic counterpart — this is the gap machlint
                     exists to close)
     unused-export   an interface val no other compilation unit
                     names (no dynamic counterpart)
     poly-compare    Stdlib's polymorphic max/min/compare in
                     lib/machine or lib/mach (no dynamic counterpart:
                     the answer is the same, only slower) *)

module Report = Lint_report
module Ast = Lint_ast
module Graph = Lint_graph

type report = {
  r_files : int;
  r_defs : int;  (* top-level bindings seen by the call graph *)
  r_nodes : int;  (* AST size: deterministic analysis-work counter *)
  r_cycles : int;  (* modeled analysis cost, see [analysis_passes] *)
  r_findings : Lint_report.finding list;
}

(* The deterministic cost model for BENCH_lint.json: every pass walks
   every AST node at unit cost — one parse pass, one call-graph pass and
   one per rule.  Host time is noise; this number moves exactly when the
   tree or the analyzer grows. *)
let analysis_passes = 2 + List.length Lint_report.all_rules

(* lint_fixtures is machlint's own known-bad corpus: it is linted file
   by file by the fixture tests, never as part of a tree scan. *)
let skip_dirs = [ "_build"; ".git"; "lint_fixtures" ]

let rec walk_files acc path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left
         (fun acc name ->
           if List.mem name skip_dirs then acc
           else walk_files acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

(* [let[@machlint.allow "rule ..."] f = ...] suppresses the named rules
   (or every rule, with no payload) inside that binding — for code that
   violates a discipline *on purpose*, like the tests that seed
   known-bad traffic to prove Machcheck's dynamic checkers catch it. *)
let allow_spans g =
  let spans = ref [] in
  Lint_graph.iter_fns g (fun fn ->
      List.iter
        (fun attr ->
          match Lint_ast.allowed_rules attr with
          | None -> ()
          | Some rules ->
              let loc = fn.Lint_graph.fn_loc in
              spans :=
                ( loc.Location.loc_start.Lexing.pos_fname,
                  loc.Location.loc_start.Lexing.pos_lnum,
                  loc.Location.loc_end.Lexing.pos_lnum,
                  rules )
                :: !spans)
        fn.Lint_graph.fn_attrs);
  !spans

let allowed spans (f : Lint_report.finding) =
  List.exists
    (fun (file, l0, l1, rules) ->
      f.Lint_report.f_file = file
      && f.Lint_report.f_line >= l0
      && f.Lint_report.f_line <= l1
      && List.mem f.Lint_report.f_rule rules)
    spans

let run ~roots () =
  let files =
    List.concat_map (fun r -> List.rev (walk_files [] r)) roots
    |> List.sort_uniq compare
  in
  let parsed parse =
    List.partition_map
      (fun path ->
        match parse path with Ok x -> Left x | Error f -> Right f)
  in
  let mlis, mls = List.partition (fun p -> Filename.check_suffix p ".mli") files in
  let sources, ml_errors = parsed Lint_ast.parse mls in
  let interfaces, mli_errors =
    parsed
      (fun p -> Result.map (fun sg -> (p, sg)) (Lint_ast.parse_interface p))
      mlis
  in
  (* An interface that declares nothing is not a file of the tree: dune
     writes one per executable module inside _build, and a scan there
     must count what a scan of the source tree counts. *)
  let interfaces = List.filter (fun (_, sg) -> sg <> []) interfaces in
  let g = Lint_graph.build sources in
  let findings =
    ml_errors @ mli_errors
    @ Lint_linearity.check g
    @ Lint_lockorder.check g
    @ Lint_noblock.check g
    @ Lint_interface.check sources
    @ Lint_export.check sources interfaces
    @ Lint_polycompare.check sources
  in
  let spans = allow_spans g in
  let findings = List.filter (fun f -> not (allowed spans f)) findings in
  let nodes =
    Lint_ast.count_nodes (List.map (fun s -> s.Lint_ast.s_ast) sources)
  in
  {
    r_files =
      List.length mls + List.length interfaces + List.length mli_errors;
    r_defs = List.length g.Lint_graph.fn_order;
    r_nodes = nodes;
    r_cycles = analysis_passes * nodes;
    r_findings = List.sort_uniq Lint_report.compare findings;
  }
