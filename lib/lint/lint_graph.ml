(* Call graph over the scanned tree, at top-level-binding granularity.

   Resolution is syntactic but path-aware: a call like
   [Mach.Sched.block] is canonicalized by trying ever-shorter suffixes of
   the module path until one names a binding we saw ("Sched.block"),
   which makes the library wrapper modules (Mach, Fileserver, Machine)
   transparent.  [module F = Fileserver] aliases and [open]s are expanded
   per file.  Unresolved calls keep their textual path so rules can still
   match primitives by suffix.

   Closures handed to the event queue, disk completion slots, thread
   spawn, or a [txn_run] field do NOT run in their enclosing function's
   context — they are split out as [deferred] contexts with their own
   call lists, and excluded from the enclosing function's edges.  The
   no-block rule roots its taint checks at exactly those contexts. *)

open Parsetree

type call = {
  c_path : string list;  (* alias-expanded textual path *)
  c_key : string option;  (* canonical key when the target is in the tree *)
  c_loc : Location.t;
}

type deferred = {
  d_sink : string;  (* "Event_queue.schedule", "Disk.read", ..., "txn_run" *)
  d_fn : string;  (* enclosing binding's key, for the message *)
  d_loc : Location.t;
  d_calls : call list;
}

type fn = {
  fn_key : string;  (* "Ipc.receive", "File_server.Client.read" *)
  fn_modpath : string list;  (* ["File_server"; "Client"] *)
  fn_loc : Location.t;
  fn_attrs : (string * string option) list;  (* name, string payload *)
  fn_body : expression;
  mutable fn_calls : call list;
}

type t = {
  fns : (string, fn) Hashtbl.t;
  fn_order : string list;  (* deterministic iteration order *)
  contexts : deferred list;
}

let find t key = Hashtbl.find_opt t.fns key

(* Closure arguments to these callees run later, in another context. *)
let sink_patterns =
  [
    "Event_queue.schedule";
    "Disk.read";
    "Disk.write";
    "Disk.barrier";
    "thread_spawn";
    "spawn";
    "txn_run";
  ]

let sink_of path =
  List.find_opt (fun s -> Lint_ast.suffix_matches ~path s) sink_patterns

(* ------------------------------------------------------------------ *)
(* Pass 1: register every top-level (and one-level-nested) binding.    *)

let binding_name vb =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (q, _) -> go q
    | _ -> None
  in
  go vb.pvb_pat

let register_fns fns order (src : Lint_ast.source) =
  let add modpath vb =
    match binding_name vb with
    | None -> ()
    | Some name ->
        let key = String.concat "." (modpath @ [ name ]) in
        if not (Hashtbl.mem fns key) then (
          Hashtbl.replace fns key
            {
              fn_key = key;
              fn_modpath = modpath;
              fn_loc = vb.pvb_loc;
              fn_attrs = Lint_ast.attr_strings vb.pvb_attributes;
              fn_body = vb.pvb_expr;
              fn_calls = [];
            };
          order := key :: !order)
  in
  let rec structure modpath str =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) -> List.iter (add modpath) vbs
        | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } -> (
            match pmb_expr.pmod_desc with
            | Pmod_structure s -> structure (modpath @ [ sub ]) s
            | _ -> ())
        | _ -> ())
      str
  in
  structure [ src.Lint_ast.s_module ] src.Lint_ast.s_ast

(* ------------------------------------------------------------------ *)
(* Pass 2: per-file resolution context, then call collection.          *)

type file_ctx = {
  fc_aliases : (string * string list) list;  (* module F = Fileserver *)
  fc_opens : string list list;  (* open Fs_types, open Mach.Ktypes *)
}

let file_ctx (src : Lint_ast.source) =
  let aliases = ref [] and opens = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_module
          { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
          match pmb_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> (
              match Lint_ast.flatten_lid txt with
              | Some p -> aliases := (name, p) :: !aliases
              | None -> ())
          | _ -> ())
      | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
        -> (
          match Lint_ast.flatten_lid txt with
          | Some p -> opens := p :: !opens
          | None -> ())
      | _ -> ())
    src.Lint_ast.s_ast;
  { fc_aliases = !aliases; fc_opens = List.rev !opens }

let expand_alias fc = function
  | hd :: tl as path -> (
      match List.assoc_opt hd fc.fc_aliases with
      | Some p -> p @ tl
      | None -> path)
  | [] -> []

(* Canonicalize a dotted path by trying ever-shorter suffixes against the
   known bindings ("Mach.Sched.block" -> "Sched.block"). *)
let resolve_qualified fns path =
  let rec try_from p =
    match p with
    | [] | [ _ ] -> None
    | _ ->
        let key = String.concat "." p in
        if Hashtbl.mem fns key then Some key else try_from (List.tl p)
  in
  try_from path

let resolve fns fc ~modpath path =
  let path = expand_alias fc path in
  (* Innermost enclosing module first (locals and sibling submodules),
     then the path as written, then opens. *)
  let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l in
  let rec from_prefix = function
    | [] -> None
    | pre ->
        let key = String.concat "." (pre @ path) in
        if Hashtbl.mem fns key then Some key else from_prefix (drop_last pre)
  in
  match from_prefix modpath with
  | Some k -> Some k
  | None -> (
      match resolve_qualified fns path with
      | Some k -> Some k
      | None ->
          List.fold_left
            (fun acc o ->
              match acc with
              | Some _ -> acc
              | None -> resolve_qualified fns (o @ path))
            None fc.fc_opens)

(* Collect the calls of [body].  Closure args of sink calls are split out
   into [deferred] (recursively — a callback scheduling a callback yields
   two contexts). *)
let collect_calls fns fc ~modpath ~fn_key body =
  let all_deferred = ref [] in
  let rec collect expr0 =
    let calls = ref [] in
    let add_path p loc =
      let p = expand_alias fc p in
      calls :=
        { c_path = p; c_key = resolve fns fc ~modpath p; c_loc = loc }
        :: !calls
    in
    let rec go e =
      match e.pexp_desc with
      | Pexp_apply (head, args) -> (
          match Lint_ast.path_of_expr head with
          | Some p ->
              let p' = expand_alias fc p in
              add_path p head.pexp_loc;
              let sink =
                match sink_of p' with
                | Some s when s = "txn_run" -> None  (* field, not ident *)
                | s -> s
              in
              List.iter
                (fun (_, a) ->
                  match (sink, a.pexp_desc) with
                  | Some s, (Pexp_fun _ | Pexp_function _) ->
                      all_deferred :=
                        {
                          d_sink = s;
                          d_fn = fn_key;
                          d_loc = a.pexp_loc;
                          d_calls = collect a;
                        }
                        :: !all_deferred
                  | _ -> go a)
                args
          | None ->
              go head;
              List.iter (fun (_, a) -> go a) args)
      | Pexp_ident { txt; _ } -> (
          match Lint_ast.flatten_lid txt with
          | Some p -> add_path p e.pexp_loc
          | None -> ())
      | Pexp_record (fields, base) ->
          Option.iter go base;
          List.iter
            (fun ({ Location.txt; _ }, v) ->
              match Lint_ast.flatten_lid txt with
              | Some p when Lint_ast.last_of p = "txn_run" ->
                  all_deferred :=
                    {
                      d_sink = "txn_run";
                      d_fn = fn_key;
                      d_loc = v.pexp_loc;
                      d_calls = collect v;
                    }
                    :: !all_deferred
              | _ -> go v)
            fields
      | _ ->
          let it =
            {
              Ast_iterator.default_iterator with
              expr = (fun _ e -> go e);
            }
          in
          Ast_iterator.default_iterator.expr it e
    in
    go expr0;
    List.rev !calls
  in
  let calls = collect body in
  (calls, List.rev !all_deferred)

(* ------------------------------------------------------------------ *)

let build (sources : Lint_ast.source list) =
  let fns = Hashtbl.create 512 in
  let order = ref [] in
  List.iter (register_fns fns order) sources;
  let contexts = ref [] in
  List.iter
    (fun src ->
      let fc = file_ctx src in
      let rec structure modpath str =
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_value (_, vbs) ->
                List.iter
                  (fun vb ->
                    match binding_name vb with
                    | None -> ()
                    | Some name ->
                        let key = String.concat "." (modpath @ [ name ]) in
                        let calls, deferred =
                          collect_calls fns fc ~modpath ~fn_key:key vb.pvb_expr
                        in
                        (match Hashtbl.find_opt fns key with
                        | Some fn -> fn.fn_calls <- calls
                        | None -> ());
                        contexts := deferred @ !contexts)
                  vbs
            | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ }
              -> (
                match pmb_expr.pmod_desc with
                | Pmod_structure s -> structure (modpath @ [ sub ]) s
                | _ -> ())
            | _ -> ())
          str
      in
      structure [ src.Lint_ast.s_module ] src.Lint_ast.s_ast)
    sources;
  { fns; fn_order = List.rev !order; contexts = List.rev !contexts }

let iter_fns t f =
  List.iter
    (fun key -> match Hashtbl.find_opt t.fns key with
      | Some fn -> f fn
      | None -> ())
    t.fn_order

(* Does call [c] hit one of the [targets] (dotted suffix patterns)?  The
   canonical key is checked first so local calls ("block" inside sched.ml
   resolving to "Sched.block") match too. *)
let call_matches c targets =
  (match c.c_key with
  | Some k -> Lint_ast.matches_any ~path:(String.split_on_char '.' k) targets
  | None -> false)
  || Lint_ast.matches_any ~path:c.c_path targets
