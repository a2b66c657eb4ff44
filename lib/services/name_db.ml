open Mach.Ktypes

type entry = {
  path : string;
  attributes : (string * string) list;
  bound_port : port option;
}

type change = Added of string | Removed of string | Modified of string

type node = {
  mutable n_attributes : (string * string) list;
  mutable n_port : port option;
  children : (string, node) Hashtbl.t;
}

type t = {
  root : node;
  mutable subscriptions : (string * (change -> unit)) list;
  mutable count : int;
}

let fresh_node () =
  { n_attributes = []; n_port = None; children = Hashtbl.create 4 }

let create () = { root = fresh_node (); subscriptions = []; count = 0 }

let components path =
  List.filter (fun c -> c <> "") (String.split_on_char '/' path)

let steps ~path = List.length (components path)

let rec is_prefix short long =
  match (short, long) with
  | [], _ -> true
  | _, [] -> false
  | a :: short, b :: long -> String.equal a b && is_prefix short long

let notify t path change =
  let path_c = components path in
  List.iter
    (fun (prefix, f) -> if is_prefix (components prefix) path_c then f change)
    t.subscriptions

let rec descend node = function
  | [] -> Some node
  | c :: rest -> (
      match Hashtbl.find_opt node.children c with
      | Some child -> descend child rest
      | None -> None)

let rec descend_create t node = function
  | [] -> node
  | c :: rest ->
      let child =
        match Hashtbl.find_opt node.children c with
        | Some child -> child
        | None ->
            let child = fresh_node () in
            Hashtbl.replace node.children c child;
            t.count <- t.count + 1;
            child
      in
      descend_create t child rest

let bind t ~path ?(attributes = []) ?port () =
  match List.rev (components path) with
  | [] -> Error "empty path"
  | leaf :: rev_parents ->
      let parent = descend_create t t.root (List.rev rev_parents) in
      if Hashtbl.mem parent.children leaf then
        Error (Printf.sprintf "%S already bound" path)
      else begin
        let node = fresh_node () in
        node.n_attributes <- attributes;
        node.n_port <- port;
        Hashtbl.replace parent.children leaf node;
        t.count <- t.count + 1;
        notify t path (Added path);
        Ok ()
      end

let rebind t ~path ?(attributes = []) ?port () =
  match descend t.root (components path) with
  | Some node ->
      node.n_attributes <- attributes;
      node.n_port <- port;
      notify t path (Modified path)
  | None -> (
      match bind t ~path ~attributes ?port () with
      | Ok () -> ()
      | Error _ -> ())

let unbind t ~path =
  match List.rev (components path) with
  | [] -> false
  | leaf :: rev_parents -> (
      match descend t.root (List.rev rev_parents) with
      | None -> false
      | Some parent ->
          if Hashtbl.mem parent.children leaf then begin
            Hashtbl.remove parent.children leaf;
            t.count <- t.count - 1;
            notify t path (Removed path);
            true
          end
          else false)

let entry_of path node =
  { path; attributes = node.n_attributes; bound_port = node.n_port }

let resolve t ~path =
  Option.map (entry_of path) (descend t.root (components path))

let resolve_port t ~path =
  match resolve t ~path with Some e -> e.bound_port | None -> None

let list_children t ~path =
  match descend t.root (components path) with
  | None -> []
  | Some node ->
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) node.children [])

(* Depth-first filtered search of the whole tree. *)
let search t ~filter =
  let results = ref [] in
  let rec walk path node =
    let e = entry_of path node in
    if path <> "" && filter e then results := e :: !results;
    let names =
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) node.children [])
    in
    List.iter
      (fun name ->
        let child = Hashtbl.find node.children name in
        let child_path = if path = "" then name else path ^ "/" ^ name in
        walk child_path child)
      names
  in
  walk "" t.root;
  List.rev !results

let search_attribute t ~key ~value =
  search t
    ~filter:(fun e ->
      match List.assoc_opt key e.attributes with
      | Some v -> v = value
      | None -> false)

let subscribe t ~prefix f = t.subscriptions <- (prefix, f) :: t.subscriptions
let size t = t.count
