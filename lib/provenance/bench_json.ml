(* The one JSON value type of the BENCH_*.json files: every experiment
   builds one, the bench driver prints it, and bench ab and the tests
   read it back.  A small recursive-descent reader and a printer (the
   repo deliberately has no JSON dependency). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* Rounded exactly as [Printf "%.*f"] rounds, so a value reads back the
   same whichever printer wrote it. *)
let fixed digits x = Num (float_of_string (Printf.sprintf "%.*f" digits x))

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else raise (Bad (Printf.sprintf "bad literal at %d" !pos))
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Bad "unterminated string")
      | Some '"' -> advance (); Buffer.contents b
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some c -> Buffer.add_char b c
          | None -> raise (Bad "unterminated escape"));
          advance ();
          go ()
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then raise (Bad (Printf.sprintf "bad number at %d" start));
    float_of_string (String.sub s start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else Obj (members [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else Arr (elements [])
    | Some '"' -> advance (); Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
    | None -> raise (Bad "unexpected end of input")
  and members acc =
    skip_ws ();
    expect '"';
    let key = string_body () in
    skip_ws ();
    expect ':';
    let v = value () in
    skip_ws ();
    match peek () with
    | Some ',' -> advance (); members ((key, v) :: acc)
    | Some '}' -> advance (); List.rev ((key, v) :: acc)
    | _ -> raise (Bad (Printf.sprintf "bad object at %d" !pos))
  and elements acc =
    let v = value () in
    skip_ws ();
    match peek () with
    | Some ',' -> advance (); elements (v :: acc)
    | Some ']' -> advance (); List.rev (v :: acc)
    | _ -> raise (Bad (Printf.sprintf "bad array at %d" !pos))
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at %d" !pos)
    else Ok v
  with Bad msg | Failure msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integers print bare; anything else in the fewest digits that read
   back to the same float. *)
let number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 15

let scalar = function
  | Obj (_ :: _) | Arr (_ :: _) -> false
  | Null | Bool _ | Num _ | Str _ | Obj [] | Arr [] -> true

(* A container of scalars prints on one line (a results row); anything
   holding a container breaks one member per line. *)
let to_string v =
  let b = Buffer.create 4096 in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num x -> Buffer.add_string b (number x)
    | Str s -> Printf.bprintf b "\"%s\"" (escape s)
    | Arr [] -> Buffer.add_string b "[]"
    | Obj [] -> Buffer.add_string b "{}"
    | Arr xs -> seq indent "[" "]" (List.map (fun x -> (None, x)) xs)
    | Obj fs -> seq indent "{" "}" (List.map (fun (k, x) -> (Some k, x)) fs)
  and seq indent op cl items =
    let flat = List.for_all (fun (_, x) -> scalar x) items in
    let inner = indent ^ "  " in
    Buffer.add_string b op;
    List.iteri
      (fun i (key, x) ->
        if i > 0 then Buffer.add_char b ',';
        if flat then Buffer.add_char b ' '
        else Printf.bprintf b "\n%s" inner;
        Option.iter (fun k -> Printf.bprintf b "\"%s\": " (escape k)) key;
        go inner x)
      items;
    if flat then Printf.bprintf b " %s" cl else Printf.bprintf b "\n%s%s" indent cl
  in
  go "" v;
  Buffer.add_char b '\n';
  Buffer.contents b
