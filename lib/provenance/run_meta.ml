(* Provenance stamped into every BENCH_*.json: which commit produced the
   numbers, which seed drove the run, and when.  Memoized per process so
   every writer in one run agrees and so re-running a workload with the
   checker toggled emits byte-identical JSON (the determinism the tests
   assert). *)

let memo f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some v -> v
    | None ->
        let v = f () in
        cell := Some v;
        v

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s
  with Sys_error _ | End_of_file -> None

(* Resolve HEAD by hand ([.git/HEAD] -> ref file or packed-refs): the
   bench must not shell out, and the test sandbox has no .git at all —
   "unknown" is the honest answer there. *)
let git_rev =
  memo (fun () ->
      let rec find_git dir depth =
        if depth > 6 then None
        else
          let cand = Filename.concat dir ".git" in
          if Sys.file_exists cand && Sys.is_directory cand then Some cand
          else
            let parent = Filename.dirname dir in
            if parent = dir then None else find_git parent (depth + 1)
      in
      match find_git (Sys.getcwd ()) 0 with
      | None -> "unknown"
      | Some git -> (
          match read_file (Filename.concat git "HEAD") with
          | None -> "unknown"
          | Some head -> (
              let head = String.trim head in
              match String.index_opt head ' ' with
              | None -> head  (* detached: HEAD holds the hash *)
              | Some i -> (
                  let refname =
                    String.sub head (i + 1) (String.length head - i - 1)
                  in
                  match read_file (Filename.concat git refname) with
                  | Some hash -> String.trim hash
                  | None -> (
                      (* ref not loose: search packed-refs *)
                      match read_file (Filename.concat git "packed-refs") with
                      | None -> "unknown"
                      | Some packed ->
                          let hit =
                            List.find_opt
                              (fun line ->
                                match String.index_opt line ' ' with
                                | Some j ->
                                    String.sub line (j + 1)
                                      (String.length line - j - 1)
                                    = refname
                                | None -> false)
                              (String.split_on_char '\n' packed)
                          in
                          (match hit with
                          | Some line ->
                              String.sub line 0 (String.index line ' ')
                          | None -> "unknown"))))))

let timestamp =
  memo (fun () ->
      let tm = Unix.gmtime (Unix.gettimeofday ()) in
      Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
        tm.Unix.tm_sec)

let block ?(seed = 0) () =
  Bench_json.(
    Obj
      [ ("git_rev", Str (git_rev ())); ("seed", int seed);
        ("timestamp", Str (timestamp ())) ])

let json ?seed () = String.trim (Bench_json.to_string (block ?seed ()))

let envelope experiment ?seed body =
  Bench_json.(
    Obj
      ([ ("experiment", Str experiment); ("schema_version", int 2);
         ("run", block ?seed ()) ]
      @ body))
