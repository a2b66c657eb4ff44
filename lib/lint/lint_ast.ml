(* Parsing and small Parsetree helpers shared by every rule.

   Machlint works on the *untyped* AST (compiler-libs [Pparse] +
   [Ast_iterator]): it never needs the build to have succeeded, which is
   what lets it run over known-bad fixtures and over a tree that is
   mid-refactor.  The price is that resolution is syntactic — see
   [Lint_graph] for how module paths are canonicalized. *)

type source = {
  s_path : string;  (* path as given on the command line *)
  s_module : string;  (* capitalized basename: "ipc.ml" -> "Ipc" *)
  s_ast : Parsetree.structure;
}

let module_name path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let syntax_error path exn =
  let msg =
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
        Format.asprintf "%a" Location.print_report report
        |> String.map (fun c -> if c = '\n' then ' ' else c)
    | _ -> Printexc.to_string exn
  in
  {
    Lint_report.f_rule = Lint_report.rule_syntax;
    f_file = path;
    f_line = 1;
    f_col = 0;
    f_msg = msg;
  }

let parse path : (source, Lint_report.finding) result =
  match Pparse.parse_implementation ~tool_name:"machlint" path with
  | ast -> Ok { s_path = path; s_module = module_name path; s_ast = ast }
  | exception exn -> Error (syntax_error path exn)

let parse_interface path : (Parsetree.signature, Lint_report.finding) result =
  match Pparse.parse_interface ~tool_name:"machlint" path with
  | sg -> Ok sg
  | exception exn -> Error (syntax_error path exn)

(* [Longident.flatten] raises on functor applications; we just give up on
   those (none appear on any path machlint cares about). *)
let rec flatten_lid = function
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (t, s) -> Option.map (fun l -> l @ [ s ]) (flatten_lid t)
  | Longident.Lapply _ -> None

let path_of_expr e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> flatten_lid txt
  | _ -> None

let last_of = function [] -> "" | l -> List.nth l (List.length l - 1)

(* "Does [path] end in [target]?" where target is a dotted pattern like
   "Sched.block" — so ["Mach";"Sched";"block"] matches but
   ["Block_cache";"block"] does not. *)
let suffix_matches ~path target =
  let t = String.split_on_char '.' target in
  let lp = List.length path and lt = List.length t in
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  lp >= lt && drop (lp - lt) path = t

let matches_any ~path targets =
  List.exists (fun t -> suffix_matches ~path t) targets

(* Each attribute as (name, string payload if it has one). *)
let attr_strings attrs =
  List.map
    (fun a ->
      let payload =
        match a.Parsetree.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ] ->
            Some s
        | _ -> None
      in
      (a.Parsetree.attr_name.Location.txt, payload))
    attrs

(* The rules an allow attribute suppresses: all of them without a
   payload, else the ones its payload names; [None] for any other
   attribute. *)
let allowed_rules (name, payload) =
  if name = "machlint.allow" || name = "allow_lint" then
    Some
      (match payload with
      | None -> Lint_report.all_rules
      | Some s ->
          String.split_on_char ' ' s
          |> List.concat_map (String.split_on_char ',')
          |> List.filter (fun r -> r <> ""))
  else None

let has_attr names attrs =
  List.exists
    (fun a -> List.mem a.Parsetree.attr_name.Location.txt names)
    attrs

(* Variables bound by a pattern (for shadowing in the linearity rule). *)
let pat_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } -> acc := txt :: !acc
          | Parsetree.Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it p;
  !acc

(* A pattern that catches everything (possibly through aliases or
   constraints): the terminal case an extensible-variant match needs. *)
let rec is_catch_all p =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_any | Parsetree.Ppat_var _ -> true
  | Parsetree.Ppat_alias (q, _) | Parsetree.Ppat_constraint (q, _) ->
      is_catch_all q
  | Parsetree.Ppat_or (a, b) -> is_catch_all a || is_catch_all b
  | _ -> false

(* All string literals in an expression, with their locations. *)
let strings_of_expr e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)) ->
              acc := (s, e.Parsetree.pexp_loc) :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  List.rev !acc

(* AST size (expressions + patterns), the deterministic work counter the
   machlint bench reports instead of wall-clock time. *)
let count_nodes structures =
  let n = ref 0 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          incr n;
          Ast_iterator.default_iterator.expr it e);
      pat =
        (fun it p ->
          incr n;
          Ast_iterator.default_iterator.pat it p);
    }
  in
  List.iter (it.structure it) structures;
  !n
