(* Findings and their rendering.  One finding is one line of output,

     file:line rule message

   in the shape of a compiler diagnostic so editors can jump straight to
   it.  Rules are named so they cross-reference the *dynamic* Machcheck
   checker that covers the same failure class at runtime (see DESIGN.md
   section 14). *)

type finding = {
  f_rule : string;
  f_file : string;
  f_line : int;
  f_col : int;
  f_msg : string;
}

(* The six rule names (plus parse failures), fixed here so the driver,
   the fixtures and the bench all agree on the spelling. *)
let rule_linearity = "port-linearity"
let rule_lockorder = "lock-order"
let rule_noblock = "no-block"
let rule_interface = "interface"
let rule_export = "unused-export"
let rule_polycompare = "poly-compare"
let rule_syntax = "syntax"

let all_rules =
  [
    rule_linearity;
    rule_lockorder;
    rule_noblock;
    rule_interface;
    rule_export;
    rule_polycompare;
    rule_syntax;
  ]

let make ~rule ~loc msg =
  let p = loc.Location.loc_start in
  {
    f_rule = rule;
    f_file = p.Lexing.pos_fname;
    f_line = p.Lexing.pos_lnum;
    f_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    f_msg = msg;
  }

let to_line f = Printf.sprintf "%s:%d %s %s" f.f_file f.f_line f.f_rule f.f_msg

let compare a b =
  match
    Stdlib.compare (a.f_file, a.f_line, a.f_col) (b.f_file, b.f_line, b.f_col)
  with
  | 0 -> Stdlib.compare (a.f_rule, a.f_msg) (b.f_rule, b.f_msg)
  | c -> c

(* Counts per rule, every rule present (0 when clean) so BENCH_lint.json
   has a stable shape. *)
let by_rule findings =
  List.map
    (fun r ->
      (r, List.length (List.filter (fun f -> f.f_rule = r) findings)))
    all_rules
