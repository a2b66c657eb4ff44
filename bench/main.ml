(* The benchmark driver over Workloads.Experiment's table: one
   experiment per table/figure of the paper plus the stress workloads.

     dune exec bench/main.exe                  — the whole table, full scale
     dune exec bench/main.exe -- --smoke       — the whole table, tiny scale
     dune exec bench/main.exe -- table2        — one experiment
     dune exec bench/main.exe -- ab A B [--threshold 0.05]
                                               — diff two BENCH files, or
                                                 every BENCH file of two dirs
     dune exec bench/main.exe -- --bechamel    — host-time Bechamel suite

   Every result prints through one renderer, paper reference values
   beside the measurements; absolute agreement is not expected (the
   substrate is a simulator), the shape is what must hold.  A whole-table
   run also writes BENCH_check.json from the same runs' Machcheck
   reports.  Exit status 1 means a failed gate or a finding. *)

module E = Workloads.Experiment
module J = Bench_json

let hr title =
  Printf.printf "\n==== %s %s\n" title
    (String.make (max 1 (66 - String.length title)) '=')

let cell = function
  | J.Str s -> s
  | J.Null -> "-"
  | v -> String.trim (J.to_string v)

let nested = function J.Obj (_ :: _) | J.Arr (_ :: _) -> true | _ -> false

(* An array of rows prints as a table over the union of their keys, an
   object holding containers one member per line, anything else as
   [key: value]. *)
let rec render indent (key, v) =
  match v with
  | J.Arr (J.Obj _ :: _ as rows) ->
      let keys = function J.Obj fs -> List.map fst fs | _ -> [] in
      let add acc k = if List.mem k acc then acc else acc @ [ k ] in
      let cols =
        List.fold_left (fun acc r -> List.fold_left add acc (keys r)) [] rows
      in
      let field row c = cell (Option.value (J.member c row) ~default:J.Null) in
      let lines = cols :: List.map (fun r -> List.map (field r) cols) rows in
      let width i =
        List.fold_left (fun w l -> max w (String.length (List.nth l i))) 0 lines
      in
      let widths = List.mapi (fun i _ -> width i) cols in
      Printf.printf "%s%s:\n" indent key;
      List.iter
        (fun l ->
          List.iteri
            (fun i (w, s) ->
              if i = 0 then Printf.printf "%s%-*s" indent w s
              else Printf.printf " %*s" w s)
            (List.combine widths l);
          print_newline ())
        lines
  | J.Obj fields when List.exists (fun (_, x) -> nested x) fields ->
      Printf.printf "%s%s:\n" indent key;
      List.iter (render (indent ^ "  ")) fields
  | J.Str s when String.contains s '\n' ->
      Printf.printf "%s%s:\n%s\n" indent key s
  | v -> Printf.printf "%s%s: %s\n" indent key (cell v)

let write file doc =
  let oc = open_out file in
  output_string oc (J.to_string doc);
  close_out oc;
  Printf.printf "wrote %s\n" file

let run_one scale (e : E.t) =
  hr e.name;
  let o = e.run scale in
  (match o.json with
  | J.Obj fields -> List.iter (render "") fields
  | j -> render "" ("result", j));
  (* the checker's nonzero counters and its first findings *)
  let shown = function
    | "findings", J.Arr (_ :: _ as fs) ->
        Some ("findings", J.Arr (List.filteri (fun i _ -> i < 5) fs))
    | _, (J.Num 0. | J.Arr []) -> None
    | kv -> Some kv
  in
  Option.iter
    (fun rep ->
      match Check.to_json rep with
      | J.Obj fs -> render "" ("machcheck", J.Obj (List.filter_map shown fs))
      | j -> render "" ("machcheck", j))
    o.check;
  List.iter
    (fun (name, ok) ->
      Printf.printf "  %-4s %s\n" (if ok then "ok" else "FAIL") name)
    o.gates;
  Option.iter (fun f -> write f (E.document e o)) e.file;
  o

let report_failures = function
  | [] -> ()
  | failed ->
      List.iter (Printf.eprintf "FAIL %s\n") failed;
      exit 1

let run_table scale =
  let outs = List.map (fun (e : E.t) -> (e, run_one scale e)) E.all in
  hr "machcheck";
  write "BENCH_check.json"
    (E.check_document
       (List.filter_map
          (fun ((e : E.t), (o : E.outcome)) ->
            Option.map (fun rep -> (e.name, rep)) o.check)
          outs));
  report_failures
    (List.concat_map
       (fun ((e : E.t), o) ->
         List.map (fun f -> e.name ^ ": " ^ f) (E.failures o))
       outs)

(* Two files, or every BENCH file of two directories, each verdict
   printed before the exit status is decided.  Exits 2 on any error (a
   missing counterpart, bad JSON), else 1 on any regression. *)
let bench_ab ~a ~b ~threshold =
  let module AB = Workloads.Bench_ab in
  let results =
    if Sys.file_exists a && Sys.is_directory a then
      AB.compare_dirs ~a ~b ~threshold
    else [ (Printf.sprintf "%s -> %s" a b, AB.compare_files ~a ~b ~threshold) ]
  in
  let errors = ref 0 and regressed = ref 0 in
  List.iter
    (fun (name, r) ->
      hr ("ab: " ^ name);
      match r with
      | Error e ->
          incr errors;
          flush stdout;
          Printf.eprintf "ab: %s\n%!" e
      | Ok v ->
          Format.printf "%a@?" AB.pp_verdict v;
          if v.AB.v_regressions > 0 then incr regressed)
    results;
  if !errors > 0 then exit 2 else if !regressed > 0 then exit 1

(* The machine model's own host cost: one round has each CPU of a
   4-CPU ppc604 fetch 256 bytes of shared code, load the 256-byte data
   block, store its own 64-byte line of it (so the next round's loads
   take coherence transfers) and IPI its neighbour. *)
let smp_hot_path () =
  let open Machine in
  let m = create (Config.with_ncpus Config.ppc604_133 ~n:4) in
  let code = Layout.alloc m.layout ~name:"code" ~kind:Layout.Code ~size:4096 in
  let data = Layout.alloc m.layout ~name:"data" ~kind:Layout.Data ~size:4096 in
  fun () ->
    for i = 0 to 3 do
      set_active m i;
      Cpu.fetch m.cpu code ~offset:0 ~bytes:256;
      Cpu.load m.cpu ~addr:data.Layout.base ~bytes:256;
      Cpu.store m.cpu ~addr:(data.Layout.base + (64 * i)) ~bytes:64;
      ipi m ~target:((i + 1) mod 4)
    done

(* host-time measurements of the experiment cores, one Bechamel test per
   table/figure, and of the machine model's hot path *)
let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let quick name f = Test.make ~name (Staged.stage f) in
  let test =
    Test.make_grouped ~name:"wpos-repro"
      [
        quick "table2" (fun () ->
            ignore (Workloads.Micro.table2 ~iters:200 ()));
        quick "ipc-stress:1k" (fun () ->
            ignore
              (Workloads.Ipc_stress.run ~workers:1 ~iters:50 ~sizes:[ 1024 ]
                 ()));
        quick "fileserver-factor" (fun () ->
            ignore (Workloads.Micro.fileserver_factor ~ops:50 ()));
        quick "table1:file-intensive-1" (fun () ->
            let spec = List.nth Workloads.Table1.all 0 in
            let m = Machine.create Machine.Config.pentium_133 in
            let api =
              Workloads.Api.of_monolithic (Monolithic.boot m ~fs_format:`Hpfs ())
            in
            ignore (Workloads.Table1.run api spec));
        quick "machine:smp-hot-path" (smp_hot_path ());
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns_per_run ] ->
          Printf.printf "%-32s %12.0f ns/run (host time)\n" name ns_per_run
      | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
    results

let () =
  match Array.to_list Sys.argv with
  | _ :: "--bechamel" :: _ -> bechamel ()
  | _ :: "--smoke" :: _ -> run_table E.Smoke
  | _ :: "ab" :: a :: b :: rest ->
      let threshold =
        match rest with
        | "--threshold" :: v :: _ -> (
            match float_of_string_opt v with
            | Some f when f >= 0.0 -> f
            | _ ->
                Printf.eprintf "ab: bad threshold %S\n" v;
                exit 2)
        | _ -> 0.05
      in
      bench_ab ~a ~b ~threshold
  | _ :: "ab" :: _ ->
      Printf.eprintf
        "usage: main.exe ab A.json B.json [--threshold 0.05]\n\
        \       main.exe ab DIR_A DIR_B [--threshold 0.05]\n\
         exits 1 when B regresses against A past the threshold, 2 when a\n\
         file is missing from either directory or does not parse\n";
      exit 2
  | _ :: name :: _ -> (
      match E.find name with
      | Some e -> report_failures (E.failures (run_one E.Full e))
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map (fun (e : E.t) -> e.name) E.all));
          exit 1)
  | _ -> run_table E.Full
