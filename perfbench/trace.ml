(* Spans around the benchmark's own calls into each layer.

   A span holds the layer and function called, the op id, the calling
   CPU and actor (client thread), the start and end cycle on that CPU's
   clock, and the host nanoseconds the call took.  Spans only read
   clocks, so they cost no simulated cycles: a traced run's simulated
   metrics equal the untraced run's byte for byte.  With no recorder
   the wrapper is one [None] match. *)

type span = {
  layer : string;
  fn : string;
  op : int;
  cpu : int;
  actor : int;
  c0 : int;
  c1 : int;
  ns : int;
}

type t = { mutable spans : span list; mutable next_op : int }

let create () = { spans = []; next_op = 0 }

let host_ns () = Int64.to_int (Monotonic_clock.now ())

(* Host CPU seconds of [f ()], from a compacted heap.  Process CPU time
   leaves out the time other processes hold the CPU, and the compaction
   gives every timed section the same starting heap: both keep host
   metrics steady on a shared machine. *)
let cpu_timed f =
  Gc.compact ();
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let t0 = cpu () in
  let r = f () in
  (r, cpu () -. t0)

(* Run [f] as one call into [layer].[fn] from [actor] on [cpu]; returns
   its result and the cycles it took on the calling CPU's clock. *)
let call tr st ~layer ~fn ~cpu ~actor f =
  let c0 = Stack.cpu_now st cpu in
  match tr with
  | None ->
      let r = f () in
      (r, Stack.cpu_now st cpu - c0)
  | Some t ->
      let op = t.next_op in
      t.next_op <- op + 1;
      let h0 = host_ns () in
      let r = f () in
      let ns = host_ns () - h0 in
      let c1 = Stack.cpu_now st cpu in
      t.spans <- { layer; fn; op; cpu; actor; c0; c1; ns } :: t.spans;
      (r, c1 - c0)

let spans t = List.rev t.spans

(* Chrome trace-event JSON (Perfetto, chrome://tracing): one process
   track per simulated CPU, one thread track per actor on it, cycles as
   timestamps. *)
let write_chrome t ~path ~meta =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  Printf.fprintf oc "{ \"displayTimeUnit\": \"ns\", \"otherData\": %s,\n" meta;
  output_string oc "  \"traceEvents\": [\n    ";
  let names =
    List.init Stack.ncpus (fun c ->
        Printf.sprintf
          "{ \"ph\": \"M\", \"name\": \"process_name\", \"pid\": %d, \
           \"args\": { \"name\": \"cpu %d (cycles)\" } }"
          c c)
  in
  output_string oc (String.concat ",\n    " names);
  List.iter
    (fun s ->
      Printf.fprintf oc
        ",\n    { \"ph\": \"X\", \"cat\": %S, \"name\": \"%s.%s\", \"pid\": %d, \
         \"tid\": %d, \"ts\": %d, \"dur\": %d, \"args\": { \"op\": %d, \
         \"host_ns\": %d } }"
        s.layer s.layer s.fn s.cpu s.actor s.c0 (s.c1 - s.c0) s.op s.ns)
    (spans t);
  output_string oc "\n  ]\n}\n"
