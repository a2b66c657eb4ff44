(* Rule: unused-export.

   A [val] in an interface that no other compilation unit names is API
   surface nobody uses: it costs a body, a doc comment and a test, and
   nothing would notice it breaking.  A qualified reference
   ([Mach.Sched.wait], [Sched.wait]) whose qualifier names a scanned
   module counts for that module's val only.  Any other reference -- a
   bare [wait] under [open Sched], or one through an alias the scan does
   not know ([module S = Sched] ... [S.wait]) -- is matched by its last
   path component, so it counts for every module's [wait].  That keeps
   the rule conservative: a name collision or an alias can hide an
   unused export but never invent one.  The unit's own .ml does not
   count as a reference.  A val marked [[@@machlint.allow]] is exempt (a
   facility kept on purpose). *)

open Parsetree

(* (qualifier, name) -> compilation units (path without extension) that
   use it; the qualifier is [""] for a reference matched by name only.
   [modules] are the module names the scanned interfaces declare. *)
let references ~modules (sources : Lint_ast.source list) =
  let refs = Hashtbl.create 4096 in
  let add unit key =
    let units = Option.value ~default:[] (Hashtbl.find_opt refs key) in
    if not (List.mem unit units) then Hashtbl.replace refs key (unit :: units)
  in
  List.iter
    (fun (src : Lint_ast.source) ->
      let unit = Filename.remove_extension src.Lint_ast.s_path in
      let add_lid lid =
        match Option.map List.rev (Lint_ast.flatten_lid lid) with
        | None | Some [] -> ()
        | Some (name :: q :: _) when List.mem q modules -> add unit (q, name)
        | Some (name :: _) -> add unit ("", name)
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_ident { txt; _ } -> add_lid txt
              | Pexp_letop { let_; ands; _ } ->
                  List.iter (fun b -> add unit ("", b.pbop_op.Location.txt))
                    (let_ :: ands)
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it.structure it src.Lint_ast.s_ast)
    sources;
  refs

let allowed attrs =
  List.exists
    (fun a ->
      match Lint_ast.allowed_rules a with
      | Some rules -> List.mem Lint_report.rule_export rules
      | None -> false)
    (Lint_ast.attr_strings attrs)

(* Every val of a signature, nested module signatures included. *)
let rec vals modpath sg =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd -> [ (modpath, vd) ]
      | Psig_module
          {
            pmd_name = { txt = Some m; _ };
            pmd_type = { pmty_desc = Pmty_signature sg; _ };
            _;
          } ->
          vals (modpath @ [ m ]) sg
      | _ -> [])
    sg

let check sources (interfaces : (string * signature) list) =
  let declared =
    List.map
      (fun (path, sg) -> (path, vals [ Lint_ast.module_name path ] sg))
      interfaces
  in
  let modules =
    List.concat_map
      (fun (_, vs) -> List.map (fun (modpath, _) -> Lint_ast.last_of modpath) vs)
      declared
    |> List.sort_uniq compare
  in
  let refs = references ~modules sources in
  let users key = Option.value ~default:[] (Hashtbl.find_opt refs key) in
  List.concat_map
    (fun (path, vs) ->
      let unit = Filename.remove_extension path in
      vs
      |> List.filter_map (fun (modpath, vd) ->
             let name = vd.pval_name.Location.txt in
             let users =
               users ("", name) @ users (Lint_ast.last_of modpath, name)
             in
             if
               List.exists (fun u -> u <> unit) users
               || allowed vd.pval_attributes
               || allowed vd.pval_type.ptyp_attributes
             then None
             else
               Some
                 (Lint_report.make ~rule:Lint_report.rule_export
                    ~loc:vd.pval_loc
                    (Printf.sprintf
                       "val %s is referenced by no other compilation unit"
                       (String.concat "." (modpath @ [ name ]))))))
    declared
