type geometry = {
  blocks : int;
  block_size : int;
  seek_cycles : int;
  transfer_cycles_per_block : int;
}

(* What a write interceptor may decide about one write request as it
   reaches the media.  The disk itself knows nothing about fault plans;
   the driver layer installs an interceptor that consults one. *)
type write_fault =
  | Wf_pass
  | Wf_power_cut  (* this write and everything after it is lost *)
  | Wf_torn of int  (* entropy: only a prefix of the sectors land *)
  | Wf_bit_rot of int  (* entropy: one bit of the landed data flips *)
  | Wf_reorder of int  (* hold the write past this many later writes *)

type request =
  | Read of { block : int; count : int; k : bytes -> unit }
  | Write of { block : int; data : bytes list; k : unit -> unit }
      (* a gather list laid out from [block] on, one media write each *)

(* A queued or in-flight request and the barriers that ride on it: the
   disk has no volatile cache, so a barrier is only an ordering point and
   completes with the newest request submitted before it. *)
type slot = {
  req : request;
  mutable waiters : (unit -> unit) list;  (* barriers, newest first *)
}

(* a reordered write waiting to land: countdown in later write events *)
type held = { mutable h_ttl : int; h_block : int; h_data : bytes }

type t = {
  cpu : Cpu.t;
  events : Event_queue.t;
  irq : Irq.t;
  line : int;
  name : string;
  geometry : geometry;
  chunks : bytes array;  (* the media; [Bytes.empty] until first written *)
  mutable queue : slot list;  (* reversed: newest first *)
  mutable inflight : slot option;
  mutable served : int;
  mutable pending_completion : (unit -> unit) option;
  mutable interceptor : (block:int -> data:bytes -> write_fault) option;
  mutable powered : bool;
  mutable held : held list;  (* oldest first *)
  mutable writes_applied : int;  (* write events observed while powered *)
}

let default_geometry =
  {
    blocks = 40960;
    block_size = 512;
    (* ~3 ms positioning + ~60 us/block at 133 MHz *)
    seek_cycles = 400_000;
    transfer_cycles_per_block = 8_000;
  }

(* The media is sparse: it is stored in fixed-size chunks, each allocated
   on its first write, and a range never written reads as zeros.  Every
   access goes through [store_in] and [store_out]. *)
let chunk_bytes = 32 * 1024

let create cpu events irq ~line ~name geometry =
  let t =
    {
      cpu;
      events;
      irq;
      line;
      name;
      geometry;
      chunks =
        Array.make
          (((geometry.blocks * geometry.block_size) + chunk_bytes - 1)
          / chunk_bytes)
          Bytes.empty;
      queue = [];
      inflight = None;
      served = 0;
      pending_completion = None;
      interceptor = None;
      powered = true;
      held = [];
      writes_applied = 0;
    }
  in
  Irq.register irq ~line ~name (fun () ->
      match t.pending_completion with
      | Some k ->
          t.pending_completion <- None;
          k ()
      | None -> ());
  t

let name t = t.name
let geometry t = t.geometry

let check t ~block ~count =
  if block < 0 || count <= 0 || block + count > t.geometry.blocks then
    invalid_arg
      (Printf.sprintf "Disk.%s: request %d+%d out of range (%d blocks)"
         t.name block count t.geometry.blocks)

let request_cycles t count =
  t.geometry.seek_cycles + (count * t.geometry.transfer_cycles_per_block)

let gather_bytes data = List.fold_left (fun n d -> n + Bytes.length d) 0 data

let blocks_of_request t = function
  | Read { count; _ } -> count
  | Write { data; _ } -> gather_bytes data / t.geometry.block_size

(* [f i o pos n] for each piece of the media's bytes [off, off + len)
   that lies in one chunk: [n] bytes at offset [o] of chunk [i], which
   are bytes [pos, pos + n) of the span *)
let iter_span ~off len f =
  let rec go pos =
    if pos < len then begin
      let o = (off + pos) mod chunk_bytes in
      let n = Int.min (len - pos) (chunk_bytes - o) in
      f ((off + pos) / chunk_bytes) o pos n;
      go (pos + n)
    end
  in
  go 0

(* copy the first [len] bytes of [src] onto the media at byte [off] *)
let store_in t ~off src len =
  iter_span ~off len (fun i o pos n ->
      if Bytes.length t.chunks.(i) = 0 then
        t.chunks.(i) <- Bytes.make chunk_bytes '\000';
      Bytes.blit src pos t.chunks.(i) o n)

(* a copy of [len] bytes of the media from byte [off] *)
let store_out t ~off len =
  let dst = Bytes.create len in
  iter_span ~off len (fun i o pos n ->
      let c = t.chunks.(i) in
      if Bytes.length c = 0 then Bytes.fill dst pos n '\000'
      else Bytes.blit c o dst pos n);
  dst

(* --- media application, with the interceptor in the path ----------------- *)

let land_write t ~block data =
  store_in t ~off:(block * t.geometry.block_size) data (Bytes.length data)

let release_held t =
  let ready = t.held in
  t.held <- [];
  if t.powered then List.iter (fun h -> land_write t ~block:h.h_block h.h_data) ready

(* age every held write by one write event; those past their window land *)
let tick_held t =
  List.iter (fun h -> h.h_ttl <- h.h_ttl - 1) t.held;
  let ready, still = List.partition (fun h -> h.h_ttl <= 0) t.held in
  t.held <- still;
  if t.powered then List.iter (fun h -> land_write t ~block:h.h_block h.h_data) ready

(* One media write reaching the store, in FIFO order.  Power loss
   freezes the store: the write (and every later one) is dropped, though
   the request still completes — the machine lost power, not the
   simulation's event plumbing. *)
let apply_write t ~block data =
  if t.powered then begin
    t.writes_applied <- t.writes_applied + 1;
    let fault =
      match t.interceptor with
      | None -> Wf_pass
      | Some f -> f ~block ~data
    in
    let fresh =
      match fault with
      | Wf_pass ->
          land_write t ~block data;
          None
      | Wf_power_cut ->
          t.powered <- false;
          t.held <- [];
          None
      | Wf_torn r ->
          (* a prefix of the write lands, torn at a 4-byte granule *)
          let len = Bytes.length data in
          let keep = r mod (len / 4) * 4 in
          store_in t ~off:(block * t.geometry.block_size) data keep;
          None
      | Wf_bit_rot r ->
          land_write t ~block data;
          let bit = r mod (Bytes.length data * 8) in
          let off = (block * t.geometry.block_size) + (bit / 8) in
          let old = Bytes.get (store_out t ~off 1) 0 in
          let v = Char.code old lxor (1 lsl (bit mod 8)) in
          store_in t ~off (Bytes.make 1 (Char.chr v)) 1;
          None
      | Wf_reorder n ->
          Some
            { h_ttl = Int.max 1 n; h_block = block; h_data = Bytes.copy data }
    in
    (* this event ages only the writes held before it: a fresh hold
       outlasts n later writes and lands with the nth *)
    if t.powered then tick_held t;
    Option.iter (fun h -> t.held <- t.held @ [ h ]) fresh
  end

let rec start t slot =
  t.inflight <- Some slot;
  let done_at = Cpu.now t.cpu + request_cycles t (blocks_of_request t slot.req) in
  Event_queue.schedule t.events ~at:done_at (fun () -> complete t slot)

and complete t slot =
  let bs = t.geometry.block_size in
  let k =
    match slot.req with
    | Read { block; count; k } ->
        let data = store_out t ~off:(block * bs) (count * bs) in
        fun () -> k data
    | Write { block; data; k } ->
        (* each element lands as its own media write, in list order *)
        ignore
          (List.fold_left
             (fun block d ->
               apply_write t ~block d;
               block + (Bytes.length d / bs))
             block data
            : int);
        k
  in
  t.served <- t.served + 1;
  (* DMA moved [blocks] of data across the bus during the transfer *)
  let words = blocks_of_request t slot.req * bs / 4 in
  Perf.add_bus_cycles (Cpu.perf t.cpu) (words / 8);
  t.pending_completion <-
    Some
      (fun () ->
        k ();
        (* every write submitted before the attached barriers is on the
           media now; the reorder-held ones land before they run *)
        if slot.waiters <> [] then begin
          release_held t;
          List.iter (fun w -> w ()) (List.rev slot.waiters)
        end);
  Irq.raise_line t.irq t.line;
  t.inflight <- None;
  match List.rev t.queue with
  | [] -> ()
  | next :: rest ->
      t.queue <- List.rev rest;
      start t next

let submit t req =
  let slot = { req; waiters = [] } in
  if Option.is_some t.inflight then t.queue <- slot :: t.queue
  else start t slot

let read t ~block ~count k =
  check t ~block ~count;
  submit t (Read { block; count; k })

let write t ~block data k =
  let bs = t.geometry.block_size in
  if List.exists (fun d -> Bytes.length d = 0 || Bytes.length d mod bs <> 0) data
  then invalid_arg "Disk.write: each buffer must be a whole number of blocks";
  check t ~block ~count:(gather_bytes data / bs);
  submit t (Write { block; data; k })

let barrier t k =
  match (t.queue, t.inflight) with
  | newest :: _, _ | [], Some newest -> newest.waiters <- k :: newest.waiters
  | [], None ->
      (* idle disk: the flush has nothing to wait for *)
      release_held t;
      k ()

let read_image t ~block ~count =
  check t ~block ~count;
  store_out t ~off:(block * t.geometry.block_size)
    (count * t.geometry.block_size)

let write_image t ~block data =
  let bs = t.geometry.block_size in
  if Bytes.length data = 0 || Bytes.length data mod bs <> 0 then
    invalid_arg "Disk.write_image: data must be a whole number of blocks";
  check t ~block ~count:(Bytes.length data / bs);
  if t.powered then store_in t ~off:(block * bs) data (Bytes.length data)

let set_write_interceptor t f = t.interceptor <- f

let power_restore t = t.powered <- true
let powered_on t = t.powered
let writes_applied t = t.writes_applied
let requests_served t = t.served
