type entry = { name : string; handler : unit -> unit }

type t = {
  cpu : Cpu.t;
  table : entry option array;
  mutable spurious : int;
}

let create cpu ~lines =
  assert (lines > 0);
  { cpu; table = Array.make lines None; spurious = 0 }

let check_line t line =
  if line < 0 || line >= Array.length t.table then
    invalid_arg (Printf.sprintf "Irq: line %d out of range" line)

let register t ~line ~name handler =
  check_line t line;
  match t.table.(line) with
  | Some e ->
      invalid_arg
        (Printf.sprintf "Irq: line %d already owned by %S" line e.name)
  | None -> t.table.(line) <- Some { name; handler }

let unregister t ~line =
  check_line t line;
  t.table.(line) <- None

let raise_line t line =
  check_line t line;
  Perf.interrupt (Cpu.perf t.cpu);
  match t.table.(line) with
  | Some e -> e.handler ()
  | None -> t.spurious <- t.spurious + 1

let spurious t = t.spurious
let lines t = Array.length t.table
