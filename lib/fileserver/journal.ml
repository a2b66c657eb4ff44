(* Write-ahead journal over a reserved ring of disk blocks.

   One transaction = the block images mutated by one file-system
   operation.  Committing k images writes k+2 records, in FIFO disk
   order:

     [descriptor][image 1] ... [image k][commit]  -- then a barrier

   The records fill consecutive ring slots, so they go to the disk as
   one gather request (two when they wrap past the ring's end), and the
   calling thread blocks only on the barrier, which rides on that
   request: a transaction costs one request and one synchronous wait
   however many blocks it carries.  The descriptor lists, in image
   order, each image's target block and a checksum of the image (the
   descriptor blocks of ext3's journal); the commit record is the
   durability point — an operation is acknowledged only after its
   commit (and everything before it, by FIFO order plus the barrier)
   has reached the media.  Home-location writes happen after that,
   through the write-back cache.

   The ring is reused under a checkpoint discipline.  Every record
   occupies exactly one slot and one sequence number, with
   slot = seq mod ring-size, so the ring always holds a contiguous
   suffix of record history.  Before a slot holding an un-checkpointed
   record would be overwritten, the engine picks a commit record S,
   durably flushes home every cached block whose newest journal copy is
   at or below S (and every block with no journal copy), and writes a
   checkpoint record carrying "checkpointed through sequence S".  A
   block logged again after S may stay dirty: its newer copy is still
   live in the ring, and replay rewrites it whole (ext3's rule: a
   buffer re-logged by a newer transaction leaves the older one's
   checkpoint list).  S is the newest commit in the older half of the
   ring, or the first one far enough out to fit the next transaction,
   so a checkpoint retires about half the ring and leaves the blocks
   the newer half keeps re-logging in the cache.  Recovery replays only
   committed transactions with sequence numbers above the newest
   checkpoint — anything older is already home, and replaying it could
   clobber newer durable state. *)

let magic_descriptor = "WJD1"
let magic_commit = "WJC1"
let magic_checkpoint = "WJK1"

type recovery = {
  rv_scanned : int;  (* journal slots scanned *)
  rv_replayed_txns : int;
  rv_replayed_blocks : int;
  rv_discarded : int;  (* incomplete or checksum-invalid transactions *)
}

let clean_scan = {
  rv_scanned = 0; rv_replayed_txns = 0; rv_replayed_blocks = 0;
  rv_discarded = 0;
}

type t = {
  kernel : Mach.Kernel.t;
  disk : Machine.Disk.t;
  start : int;  (* first journal block on disk *)
  blocks : int;  (* ring size in blocks *)
  home_write : int -> bytes -> unit;  (* replay target: the block cache *)
  flush_home : through:int -> unit;  (* durable cache flush, incl. barrier *)
  mutable seq : int;  (* next record sequence; slot = seq mod blocks *)
  mutable checkpointed : int;  (* highest seq covered by a checkpoint *)
  live : int Queue.t;  (* commit seqs above [checkpointed], oldest first *)
  mutable txn_id : int;
  mutable records : int;  (* journal-record writes, for stats *)
  mutable checkpoints : int;  (* checkpoints made to free ring room *)
  mutable last_scan : recovery;  (* the most recent recovery scan *)
}

(* --- little-endian fields and checksums --------------------------------- *)

let get32 b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let set32 b off v =
  Bytes.set b off (Char.chr (v land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xFF))

(* FNV-1a, 32-bit *)
let cksum b off len =
  let h = ref 0x811C9DC5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.get b i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

(* Record layout within one block-sized slot:
     0..3   magic        4..7   seq          8..11  txn id
     12..15 field A      16..19 field B      20..23 checksum of 0..19
   A/B: descriptor = image count k / checksum of its tag area; commit =
   image count k / 0; checkpoint = checkpointed-through seq / 0.  A
   descriptor's tag area starts at byte 24: k tags of 8 bytes, each the
   target home block then the checksum of that image, in image order. *)
let tag_area = 24
let tag_bytes = 8

(* tags a block-sized descriptor can hold: 61 in a 512-byte block *)
let max_tags block_size = (block_size - tag_area) / tag_bytes

let encode t ~magic ~seq ~txn ~a ~b =
  let bs = (Machine.Disk.geometry t.disk).Machine.Disk.block_size in
  let r = Bytes.make bs '\000' in
  Bytes.blit_string magic 0 r 0 4;
  set32 r 4 seq;
  set32 r 8 txn;
  set32 r 12 a;
  set32 r 16 b;
  set32 r 20 (cksum r 0 20);
  r

let encode_descriptor t ~seq ~txn writes =
  let k = List.length writes in
  let tags = Bytes.create (k * tag_bytes) in
  List.iteri
    (fun i (target, data) ->
      set32 tags (i * tag_bytes) target;
      set32 tags ((i * tag_bytes) + 4) (cksum data 0 (Bytes.length data)))
    writes;
  let r =
    encode t ~magic:magic_descriptor ~seq ~txn ~a:k
      ~b:(cksum tags 0 (Bytes.length tags))
  in
  Bytes.blit tags 0 r tag_area (Bytes.length tags);
  r

type parsed =
  | P_descriptor of { seq : int; txn : int; tags : (int * int) list }
      (* (target block, image checksum) per image, in image order *)
  | P_commit of { seq : int; txn : int; count : int }
  | P_checkpoint of { seq : int; through : int }
  | P_raw

let parse_descriptor ~seq ~txn raw =
  let k = get32 raw 12 in
  if k > max_tags (Bytes.length raw)
     || get32 raw 16 <> cksum raw tag_area (k * tag_bytes)
  then P_raw
  else
    let tag i =
      let off = tag_area + (i * tag_bytes) in
      (get32 raw off, get32 raw (off + 4))
    in
    P_descriptor { seq; txn; tags = List.init k tag }

let parse_slot ~blocks ~slot raw =
  if Bytes.length raw < tag_area then P_raw
  else
    let m = Bytes.sub_string raw 0 4 in
    if m <> magic_descriptor && m <> magic_commit && m <> magic_checkpoint
    then P_raw
    else if get32 raw 20 <> cksum raw 0 20 then P_raw
    else
      let seq = get32 raw 4 in
      (* the slot discipline: a genuine record's seq names its slot *)
      if seq < 0 || seq mod blocks <> slot then P_raw
      else if m = magic_descriptor then
        parse_descriptor ~seq ~txn:(get32 raw 8) raw
      else if m = magic_commit then
        P_commit { seq; txn = get32 raw 8; count = get32 raw 12 }
      else P_checkpoint { seq; through = get32 raw 12 }

(* --- simulated I/O helpers ---------------------------------------------- *)

(* the whole ring, as one request *)
let read_ring t =
  Mach.Sched.await t.kernel.Mach.Kernel.sys "journal-read"
    (Machine.Disk.read t.disk ~block:t.start ~count:t.blocks)

let barrier_sync t =
  Mach.Sched.await t.kernel.Mach.Kernel.sys "journal-barrier"
    (Machine.Disk.barrier t.disk)

let rec take n = function
  | [] -> ([], [])
  | x :: rest when n > 0 ->
      let a, b = take (n - 1) rest in
      (x :: a, b)
  | rest -> ([], rest)

(* Write records into the slots from [t.seq] on: one gather request per
   contiguous run of slots, so two when the records wrap past the ring's
   end.  Fire-and-forget; durability comes from the barrier that ends
   the commit or checkpoint. *)
let rec write_records t = function
  | [] -> ()
  | records ->
      let slot = t.seq mod t.blocks in
      let run, rest = take (t.blocks - slot) records in
      Machine.Disk.write t.disk ~block:(t.start + slot) run (fun () -> ());
      let n = List.length run in
      t.seq <- t.seq + n;
      t.records <- t.records + n;
      write_records t rest

(* --- checkpoints and ring room ------------------------------------------ *)

(* Durably flush home every block whose newest journal copy is at or
   below [flush] (and every block with none), then record that the
   records up to [through] are dead weight.  [through] must end a
   transaction: a commit record or the newest record. *)
let checkpoint t ~flush ~through =
  t.flush_home ~through:flush;
  write_records t
    [ encode t ~magic:magic_checkpoint ~seq:t.seq ~txn:0 ~a:through ~b:0 ];
  barrier_sync t;
  t.checkpointed <- through;
  while (not (Queue.is_empty t.live)) && Queue.peek t.live <= through do
    ignore (Queue.pop t.live : int)
  done

(* Writing seq n reuses the slot that held seq n - blocks; that record
   must already be checkpointed or it could still be needed by replay.
   A checkpoint record takes the next slot itself, so the [needed]
   records after it reach back to seq [must]: retire through the newest
   commit in the older half of the ring if that covers [must], else
   through the first commit that does, else through everything. *)
let ensure_room t needed =
  if t.seq + needed - 1 - t.blocks > t.checkpointed then begin
    let must = t.seq + needed - t.blocks in
    let half = t.seq - (t.blocks / 2) in
    let older = ref (-1) and reach = ref (t.seq - 1) in
    Queue.iter
      (fun c ->
        if c < half then older := c;
        if c >= must && c < !reach then reach := c)
      t.live;
    t.checkpoints <- t.checkpoints + 1;
    let through = max !older !reach in
    checkpoint t ~flush:through ~through
  end

(* --- commit -------------------------------------------------------------- *)

(* k images take k + 2 slots, and [ensure_room] can free at most
   ring - 1 of them *)
let max_data_per_txn t =
  min
    (max_tags (Machine.Disk.geometry t.disk).Machine.Disk.block_size)
    (t.blocks - 3)

(* Returns the sequence of the commit record the images are logged
   under: for batches, the first batch's, which is at or below every
   image's newest copy. *)
let rec commit t writes =
  match writes with
  | [] -> t.checkpointed  (* nothing logged *)
  | _ when List.length writes > max_data_per_txn t ->
      (* An oversized operation cannot fit one descriptor or the ring as
         one transaction; commit it in bounded batches.  Each batch keeps
         the write-ahead ordering, at the cost of whole-operation
         atomicity.  A batch goes home before the next one is committed:
         that commit's checkpoint may retire the batch's records, and
         only the home flush keeps its images then. *)
      let batch, rest = take (max_data_per_txn t) writes in
      let logged = commit t batch in
      List.iter (fun (block, data) -> t.home_write block data) batch;
      ignore (commit t rest : int);
      logged
  | _ ->
      let k = List.length writes in
      ensure_room t (k + 2);
      let txn = t.txn_id in
      t.txn_id <- t.txn_id + 1;
      (* seqs first .. first + k + 1: descriptor, k images, commit *)
      let first = t.seq in
      let cseq = first + k + 1 in
      write_records t
        ((encode_descriptor t ~seq:first ~txn writes
         :: List.map (fun (_, data) -> Bytes.copy data) writes)
        @ [ encode t ~magic:magic_commit ~seq:cseq ~txn ~a:k ~b:0 ]);
      (* durability point: everything above reached the media, in order *)
      barrier_sync t;
      Queue.push cseq t.live;
      cseq

(* --- recovery ------------------------------------------------------------ *)

(* Scan the ring, replay committed-but-uncheckpointed transactions into
   the home cache, and fence the result behind a fresh checkpoint so a
   second crash cannot replay twice over newer state. *)
let scan_and_replay t =
  let ring = read_ring t in
  let bs = Bytes.length ring / t.blocks in
  let raw = Array.init t.blocks (fun slot -> Bytes.sub ring (slot * bs) bs) in
  let parsed =
    Array.mapi (fun slot data -> parse_slot ~blocks:t.blocks ~slot data) raw
  in
  let max_seq = ref (-1) in
  let through = ref (-1) in
  Array.iter
    (function
      | P_descriptor { seq; tags; _ } ->
          max_seq := max !max_seq (seq + List.length tags)
      | P_commit { seq; _ } -> max_seq := max !max_seq seq
      | P_checkpoint { seq; through = s } ->
          max_seq := max !max_seq seq;
          through := max !through s
      | P_raw -> ())
    parsed;
  let commits =
    Array.fold_left
      (fun acc p ->
        match p with
        | P_commit { seq; txn; count } when seq > !through ->
            (seq, txn, count) :: acc
        | _ -> acc)
      [] parsed
    |> List.sort compare
  in
  let replayed_txns = ref 0 in
  let replayed_blocks = ref 0 in
  let discarded = ref 0 in
  (* a commit's descriptor sits k + 1 slots before it, with the k
     images between them; each image must match its tag's checksum *)
  let images (cseq, txn, count) =
    let dseq = cseq - count - 1 in
    if count <= 0 || count > max_data_per_txn t || dseq < 0 then None
    else
      match parsed.(dseq mod t.blocks) with
      | P_descriptor { seq; txn = dtxn; tags }
        when seq = dseq && dtxn = txn && List.length tags = count ->
          let writes =
            List.mapi
              (fun i (target, _) -> (target, raw.((dseq + 1 + i) mod t.blocks)))
              tags
          in
          let intact (_, dsum) (_, data) =
            cksum data 0 (Bytes.length data) = dsum
          in
          if List.for_all2 intact tags writes then Some writes else None
      | _ -> None
  in
  List.iter
    (fun c ->
      match images c with
      | Some writes ->
          incr replayed_txns;
          List.iter
            (fun (target, data) ->
              incr replayed_blocks;
              t.home_write target data)
            writes
      | None -> incr discarded)
    commits;
  if !replayed_blocks > 0 then t.flush_home ~through:max_int;
  (* position the engine after everything the scan saw *)
  t.seq <- !max_seq + 1;
  t.checkpointed <- !through;
  Queue.clear t.live;
  if !max_seq >= 0 then checkpoint t ~flush:max_int ~through:!max_seq;
  t.last_scan <-
    {
      rv_scanned = t.blocks;
      rv_replayed_txns = !replayed_txns;
      rv_replayed_blocks = !replayed_blocks;
      rv_discarded = !discarded;
    };
  t.last_scan

let attach kernel disk ~start ~blocks ~home_write ~flush_home =
  if blocks < 8 then invalid_arg "Journal.attach: ring too small";
  let t =
    {
      kernel;
      disk;
      start;
      blocks;
      home_write;
      flush_home;
      seq = 0;
      checkpointed = -1;
      live = Queue.create ();
      txn_id = 0;
      records = 0;
      checkpoints = 0;
      last_scan = clean_scan;
    }
  in
  ignore (scan_and_replay t : recovery);
  t

let recover t = scan_and_replay t
let last_recovery t = t.last_scan
let records_written t = t.records
let checkpoints t = t.checkpoints
let blocks t = t.blocks
