type naming = Full_naming | Simple_naming

type t = {
  kernel : Mach.Kernel.t;
  runtime : Runtime.t;
  pager : Default_pager.t;
  naming : naming;
  name_service : Name_service.t option;
  simple_names : Name_simple.t option;
  loader : Loader.t;
}

let boot ?(naming = Full_naming) machine =
  let kernel = Mach.Kernel.boot machine in
  let runtime = Runtime.install kernel in
  let pager = Default_pager.start kernel in
  let name_service, simple_names =
    match naming with
    | Full_naming -> (Some (Name_service.start kernel runtime), None)
    | Simple_naming -> (None, Some (Name_simple.create kernel runtime))
  in
  let loader = Loader.create kernel runtime in
  { kernel; runtime; pager; naming; name_service; simple_names; loader }

let name_service_exn t =
  match t.name_service with
  | Some ns -> ns
  | None -> invalid_arg "Bootstrap: booted with Simple_naming"

let components t =
  [ "pn-runtime"; "default-pager"; "loader" ]
  @ (match t.naming with
    | Full_naming -> [ "name-service(x500)" ]
    | Simple_naming -> [ "name-service(simple)" ])
