(* Rule: no polymorphic comparison on the charge path.

   Stdlib's [max], [min] and [compare] are polymorphic: applied to ints
   they still call the runtime's generic comparison ([caml_greaterequal],
   [caml_compare]), where [Int.max] compiles to a compare and a move.
   lib/machine and lib/mach are the simulator's charge path, run for
   every simulated fetch, load and store, so there an unqualified [max],
   [min] or [compare] (or a [Stdlib.] one) is a finding: write the
   [Int.] or [Float.] form.

   Resolution is syntactic.  A file that binds one of the names itself
   (a [let compare], a [~compare] parameter) uses its own, and inside a
   local open of another module ([Int.(max a b)]) the names are that
   module's; neither is a finding.  There is no dynamic counterpart: a
   polymorphic call computes the same answer, only slower. *)

open Parsetree

let names = [ "max"; "min"; "compare" ]

(* "lib/machine/..." or "lib/mach/...", wherever the tree is rooted *)
let in_scope path =
  let rec go = function
    | "lib" :: ("machine" | "mach") :: _ :: _ -> true
    | _ :: rest -> go rest
    | [] -> false
  in
  go (String.split_on_char '/' path)

let bound_names ast =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          acc := Lint_ast.pat_vars p @ !acc;
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.structure it ast;
  !acc

let check_source (src : Lint_ast.source) =
  let shadowed = bound_names src.s_ast in
  let findings = ref [] in
  let flag name loc =
    findings :=
      Lint_report.make ~rule:Lint_report.rule_polycompare ~loc
        (Printf.sprintf
           "polymorphic %s on the charge path: use Int.%s or Float.%s" name
           name name)
      :: !findings
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident name; loc }
            when List.mem name names && not (List.mem name shadowed) ->
              flag name loc
          | Pexp_ident
              { txt = Longident.Ldot (Longident.Lident "Stdlib", name); loc }
            when List.mem name names ->
              flag name loc
          | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident m; _ }; _ }, _)
            when m.Location.txt <> Longident.Lident "Stdlib" ->
              ()
          | _ -> Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it src.s_ast;
  List.rev !findings

let check (sources : Lint_ast.source list) =
  List.concat_map
    (fun (src : Lint_ast.source) ->
      if in_scope src.s_path then check_source src else [])
    sources
