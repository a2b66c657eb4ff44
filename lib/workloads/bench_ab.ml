(* A/B regression diff over two BENCH_*.json files.

   Flattens both documents to (path, number) pairs, pairs them up, and
   judges each delta by the metric's direction: names that look like
   throughput, speedup, availability or success regress when they fall,
   cost-like names (cycles, misses, stalls...) regress when they rise,
   anything else is reported but never gates.  Host-time and provenance
   fields are skipped — only deterministic simulated metrics can fail a
   build.

   The two files must carry the same "experiment" and "schema_version";
   comparing apples to oranges is an error, not a zero diff. *)

module Json = Bench_json

type delta = {
  d_path : string;
  d_a : float;
  d_b : float;
  d_change : float;  (* (b - a) / a; +inf when a = 0 and b <> 0 *)
  d_direction : [ `Higher_better | `Lower_better | `Neutral ];
  d_regression : bool;
}

type verdict = {
  v_experiment : string;
  v_threshold : float;
  v_compared : int;  (* numeric leaves present in both files *)
  v_only_a : int;  (* leaves present in A but missing from B *)
  v_only_b : int;
  v_deltas : delta list;  (* changed leaves only, worst first *)
  v_regressions : int;
}

(* Provenance and host-time noise: never compared. *)
let skipped_subtree = function "run" -> true | _ -> false

let contains path sub =
  let n = String.length path and m = String.length sub in
  let rec go i = i + m <= n && (String.sub path i m = sub || go (i + 1)) in
  m > 0 && go 0

let skipped_leaf path =
  let has = contains path in
  has "host_ns" || has "timestamp" || has "git_rev" || has "seed"

let direction path =
  let has = contains path in
  if
    has "throughput" || has "speedup" || has "completed" || has "hits"
    || has "hit_rate" || has "availability" || has "_ok" || has "per_mcycle"
  then `Higher_better
  else if
    has "cycles" || has "miss" || has "stall" || has "retries" || has "lost"
    || has "torn" || has "findings" || has "residual" || has "gave_up"
  then `Lower_better
  else `Neutral

(* Flatten to leaf paths.  Array elements are keyed by index, except
   arrays of objects that carry identifying fields (system/bytes,
   workload/placement/ncpus...), which are keyed by those values so a
   reordered results array still lines up. *)
let flatten json =
  let id_key fields =
    let pick k =
      match List.assoc_opt k fields with
      | Some (Json.Str s) -> Some s
      | Some (Json.Num x) -> Some (Printf.sprintf "%g" x)
      | _ -> None
    in
    let parts =
      List.filter_map pick
        [ "system"; "workload"; "phase"; "scenario"; "placement"; "ncpus";
          "bytes"; "crash_ppm"; "write"; "ops" ]
    in
    if parts = [] then None else Some (String.concat "/" parts)
  in
  let acc = ref [] in
  let rec go path = function
    | Json.Num x -> if not (skipped_leaf path) then acc := (path, x) :: !acc
    | Json.Bool bv ->
        if not (skipped_leaf path) then
          acc := (path, if bv then 1.0 else 0.0) :: !acc
    | Json.Str _ | Json.Null -> ()
    | Json.Obj fields ->
        List.iter
          (fun (k, v) ->
            if not (skipped_subtree k) then
              go (if path = "" then k else path ^ "." ^ k) v)
          fields
    | Json.Arr items ->
        List.iteri
          (fun i v ->
            let key =
              match v with
              | Json.Obj fields -> (
                  match id_key fields with
                  | Some id -> Printf.sprintf "%s[%s]" path id
                  | None -> Printf.sprintf "%s[%d]" path i)
              | _ -> Printf.sprintf "%s[%d]" path i
            in
            go key v)
          items
  in
  go "" json;
  List.rev !acc

let str_member key json =
  match Json.member key json with Some (Json.Str s) -> Some s | _ -> None

let num_member key json =
  match Json.member key json with Some (Json.Num x) -> Some x | _ -> None

let ( let* ) = Result.bind

(* The two documents' [key] field, which must be present and equal. *)
let same key get ja jb =
  match (get key ja, get key jb) with
  | Some x, Some y when x = y -> Ok x
  | Some _, Some _ -> Error (Printf.sprintf "%s mismatch" key)
  | _ -> Error (Printf.sprintf "missing %S field" key)

let delta ~threshold path va vb =
  let change =
    if va = 0.0 then if vb > 0.0 then infinity else neg_infinity
    else (vb -. va) /. Float.abs va
  in
  let dir = direction path in
  let regression =
    match dir with
    | `Higher_better -> change < -.threshold
    | `Lower_better -> change > threshold
    | `Neutral -> false
  in
  { d_path = path; d_a = va; d_b = vb; d_change = change; d_direction = dir;
    d_regression = regression }

let compare_json ~a ~b ~threshold =
  let parse which s =
    Result.map_error (Printf.sprintf "%s: invalid JSON: %s" which) (Json.parse s)
  in
  let* ja = parse "A" a in
  let* jb = parse "B" b in
  let* experiment = same "experiment" str_member ja jb in
  let* _ = same "schema_version" num_member ja jb in
  let tb = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tb k v) (flatten jb);
  let compared = ref 0 and only_a = ref 0 and deltas = ref [] in
  List.iter
    (fun (path, va) ->
      match Hashtbl.find_opt tb path with
      | None -> incr only_a
      | Some vb ->
          incr compared;
          Hashtbl.remove tb path;
          if va <> vb then deltas := delta ~threshold path va vb :: !deltas)
    (flatten ja);
  (* regressions first, then by size of the change *)
  let order x y =
    compare
      (y.d_regression, Float.abs y.d_change)
      (x.d_regression, Float.abs x.d_change)
  in
  let deltas = List.sort order !deltas in
  Ok
    {
      v_experiment = experiment;
      v_threshold = threshold;
      v_compared = !compared;
      v_only_a = !only_a;
      v_only_b = Hashtbl.length tb;
      v_deltas = deltas;
      v_regressions = List.length (List.filter (fun d -> d.d_regression) deltas);
    }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let compare_files ~a ~b ~threshold =
  match (read_file a, read_file b) with
  | exception Sys_error e -> Error e
  | sa, sb -> compare_json ~a:sa ~b:sb ~threshold

let bench_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")

let compare_dirs ~a ~b ~threshold =
  match (bench_files a, bench_files b) with
  | exception Sys_error e -> [ (a, Error e) ]
  | [], [] -> [ (a, Error (Printf.sprintf "no BENCH_*.json in %s or %s" a b)) ]
  | fa, fb ->
      List.map
        (fun name ->
          let missing dir = Error (Printf.sprintf "%s: no %s" dir name) in
          ( name,
            if not (List.mem name fa) then missing a
            else if not (List.mem name fb) then missing b
            else
              compare_files ~a:(Filename.concat a name)
                ~b:(Filename.concat b name) ~threshold ))
        (List.sort_uniq compare (fa @ fb))

let pp_verdict ppf v =
  Format.fprintf ppf
    "experiment %s: %d metrics compared (%d only in A, %d only in B), \
     threshold %.1f%%@\n"
    v.v_experiment v.v_compared v.v_only_a v.v_only_b (v.v_threshold *. 100.0);
  if v.v_deltas = [] then Format.fprintf ppf "no metric changed@\n"
  else begin
    Format.fprintf ppf "%-52s %14s %14s %9s@\n" "metric" "A" "B" "change";
    List.iter
      (fun d ->
        let pct = d.d_change *. 100.0 in
        (* below 0.05% one decimal would print a real change as 0.0% *)
        Format.fprintf ppf "%-52s %14.1f %14.1f %8s%%%s@\n" d.d_path d.d_a
          d.d_b
          (if Float.abs pct < 0.05 then Printf.sprintf "%.2g" pct
           else Printf.sprintf "%.1f" pct)
          (if d.d_regression then "  << REGRESSION"
           else
             match d.d_direction with
             | `Neutral -> "  (not gated)"
             | `Higher_better | `Lower_better -> ""))
      v.v_deltas
  end;
  Format.fprintf ppf "regressions: %d@\n" v.v_regressions
