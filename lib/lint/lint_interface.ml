(* Rule: interface completeness (MIG-style conformance).

   The IPC message vocabulary is one *open* extensible variant
   ([Mach.Ktypes.payload]) that every server extends with
   [type payload += ...], an interface surface invisible to the type
   checker.  OCaml cannot check exhaustiveness over an open type, so
   (a) a constructor that is declared but never matched anywhere is a
   message the registered interface accepts and no handler answers, and
   (b) a match over payload constructors without a terminal catch-all
   dies with [Match_failure] the first time a fault-injected or
   newer-interface message arrives.

   Machcheck sees none of this — it only meets messages a workload
   happens to send — which is why this rule exists at build time. *)

open Parsetree

(* Constructors that belong to stdlib-ish closed types; never treat a
   match over these as a payload match even if a server names a payload
   constructor the same. *)
let builtin_ctors =
  [ "Some"; "None"; "Ok"; "Error"; "true"; "false"; "()"; "::"; "[]" ]

type payload_ctor = { pc_name : string; pc_loc : Location.t; pc_file : string }

let collect_payload_ctors (sources : Lint_ast.source list) =
  let ctors = ref [] in
  List.iter
    (fun (src : Lint_ast.source) ->
      let rec structure str =
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_typext ext
              when Lint_ast.flatten_lid ext.ptyext_path.Location.txt
                   |> Option.map Lint_ast.last_of
                   = Some "payload" ->
                List.iter
                  (fun ec ->
                    ctors :=
                      {
                        pc_name = ec.pext_name.Location.txt;
                        pc_loc = ec.pext_loc;
                        pc_file = src.s_path;
                      }
                      :: !ctors)
                  ext.ptyext_constructors
            | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ }
              ->
                structure s
            | _ -> ())
          str
      in
      structure src.s_ast)
    sources;
  List.rev !ctors

(* Every constructor name appearing as a pattern head, anywhere — and
   every one appearing in expression position (i.e. actually sendable).
   Only a constructor that is *constructed* somewhere needs a handler:
   spare declared vocabulary is a lesser smell than a message that can
   really arrive and that nobody answers. *)
let collect_heads (sources : Lint_ast.source list) =
  let matched = Hashtbl.create 256 and built = Hashtbl.create 256 in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_construct ({ txt; _ }, _) -> (
              match Lint_ast.flatten_lid txt with
              | Some path ->
                  Hashtbl.replace matched (Lint_ast.last_of path) ()
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_construct ({ txt; _ }, _) -> (
              match Lint_ast.flatten_lid txt with
              | Some path -> Hashtbl.replace built (Lint_ast.last_of path) ()
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  List.iter (fun (s : Lint_ast.source) -> it.structure it s.s_ast) sources;
  (matched, built)

let rec pat_head p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) ->
      Option.map Lint_ast.last_of (Lint_ast.flatten_lid txt)
  | Ppat_alias (q, _) | Ppat_constraint (q, _) -> pat_head q
  | Ppat_or (a, _) -> pat_head a
  | _ -> None

(* (b) payload matches need a catch-all. *)
let check_catch_all (sources : Lint_ast.source list) payload_set findings =
  let is_payload_case c =
    match pat_head c.pc_lhs with
    | Some h -> Hashtbl.mem payload_set h && not (List.mem h builtin_ctors)
    | None -> false
  in
  let check_cases loc cases =
    if List.exists is_payload_case cases then
      let covered =
        List.exists
          (fun c -> Lint_ast.is_catch_all c.pc_lhs && c.pc_guard = None)
          cases
      in
      if not (covered) then
        findings :=
          Lint_report.make ~rule:Lint_report.rule_interface ~loc
            "match over the open payload type has no catch-all case: an \
             unknown or fault-injected message raises Match_failure and \
             kills the server loop; add a `| _ ->' reply"
          :: !findings
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_match (_, cases) | Pexp_function cases ->
              check_cases e.pexp_loc cases
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  List.iter (fun (s : Lint_ast.source) -> it.structure it s.s_ast) sources

let check (sources : Lint_ast.source list) =
  let findings = ref [] in
  let ctors = collect_payload_ctors sources in
  let matched, built = collect_heads sources in
  (* (a) sendable but never handled *)
  List.iter
    (fun c ->
      if Hashtbl.mem built c.pc_name && not (Hashtbl.mem matched c.pc_name)
      then
        findings :=
          Lint_report.make ~rule:Lint_report.rule_interface ~loc:c.pc_loc
            (Printf.sprintf
               "payload constructor %s is sent somewhere but no handler \
                ever matches it: the message arrives and is silently \
                dropped (or bounces as a generic error)"
               c.pc_name)
          :: !findings)
    ctors;
  let payload_set = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace payload_set c.pc_name ()) ctors;
  check_catch_all sources payload_set findings;
  List.rev !findings
