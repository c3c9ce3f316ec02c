open Fpc_machine

type mode = Fast | Software_only

(* Live-block bookkeeping is a flat array indexed by quad offset from
   heap_base: every ladder class is a multiple of 4 words (Size_class
   rounds up to quads), so LF = block + 4 is always quad-aligned relative
   to heap_base.  A slot holds [-1] when free, else the packed pair
   [(requested lsl 8) lor fsi].  This replaces a Hashtbl whose
   replace/remove pair allocated on every call/return. *)

type t = {
  mode : mode;
  mem : Memory.t;
  ladder : Size_class.t;
  av_base : int;
  heap_base : int;
  heap_limit : int;
  live : int array; (* quad-indexed by lf; -1 free, else (requested lsl 8) lor fsi *)
  mutable live_blocks : int;
  mutable wilderness : int;
  mutable fast_allocs : int;
  mutable frees : int;
  mutable software_traps : int;
  mutable live_words : int;
  mutable peak_live_words : int;
  mutable requested_words : int;
  mutable free_pool_words : int;
  mutable on_event : (Fpc_trace.Event.kind -> unit) option;
}

exception Out_of_frame_heap

let create ?(mode = Fast) ~mem ~ladder ~av_base ~heap_base ~heap_limit () =
  if heap_base land 3 <> 0 then invalid_arg "Alloc_vector.create: heap_base not quad-aligned";
  if heap_limit > Memory.size mem then invalid_arg "Alloc_vector.create: heap beyond memory";
  if av_base + Size_class.class_count ladder > heap_base then
    invalid_arg "Alloc_vector.create: AV overlaps heap";
  for i = 0 to Size_class.class_count ladder - 1 do
    Memory.poke mem (av_base + i) 0
  done;
  {
    mode;
    mem;
    ladder;
    av_base;
    heap_base;
    heap_limit;
    live = Array.make (((heap_limit - heap_base) lsr 2) + 1) (-1);
    live_blocks = 0;
    wilderness = heap_base;
    fast_allocs = 0;
    frees = 0;
    software_traps = 0;
    live_words = 0;
    peak_live_words = 0;
    requested_words = 0;
    free_pool_words = 0;
    on_event = None;
  }

let ladder t = t.ladder
let set_on_event t f = t.on_event <- f

(* An lf is a plausible frame pointer iff it is quad-offset from heap_base
   and inside the heap; anything else maps to no live slot. *)
let[@inline] live_index t ~lf =
  if lf < t.heap_base || lf > t.heap_limit || (lf - t.heap_base) land 3 <> 0 then -1
  else (lf - t.heap_base) lsr 2

let reset t =
  (* Mirror [create]: empty free lists, untouched wilderness, all counters
     zero.  Only slots the previous run could have carved need clearing. *)
  for i = 0 to Size_class.class_count t.ladder - 1 do
    Memory.poke t.mem (t.av_base + i) 0
  done;
  Array.fill t.live 0 (Int.min (Array.length t.live) (((t.wilderness - t.heap_base) lsr 2) + 1)) (-1);
  t.live_blocks <- 0;
  t.wilderness <- t.heap_base;
  t.fast_allocs <- 0;
  t.frees <- 0;
  t.software_traps <- 0;
  t.live_words <- 0;
  t.peak_live_words <- 0;
  t.requested_words <- 0;
  t.free_pool_words <- 0

(* Carve one block of class [fsi] from the wilderness (software path;
   unmetered pokes — the trap's own references are folded into the
   software_alloc charge). *)
let carve t ~fsi =
  let words = Size_class.block_words t.ladder fsi in
  let block = t.wilderness in
  if block + words > t.heap_limit then raise Out_of_frame_heap;
  t.wilderness <- block + words;
  Memory.poke t.mem block fsi;
  block

(* Blocks the software allocator carves per trap, at most. *)
let replenish_count = 8

let replenish t ~cost ~fsi =
  Cost.software_alloc cost;
  t.software_traps <- t.software_traps + 1;
  let words = Size_class.block_words t.ladder fsi in
  (* Batch small classes generously, rare big ones sparingly: the software
     allocator balances pool space against trap frequency. *)
  let batch = Int.max 1 (Int.min replenish_count (2048 / words)) in
  for _ = 1 to batch do
    let block = carve t ~fsi in
    let head = Memory.peek t.mem (t.av_base + fsi) in
    Memory.poke t.mem (block + 1) head;
    Memory.poke t.mem (t.av_base + fsi) block;
    t.free_pool_words <- t.free_pool_words + words
  done

let[@inline] record_alloc t ~lf ~fsi ~words ~requested =
  let idx = live_index t ~lf in
  if t.live.(idx) < 0 then t.live_blocks <- t.live_blocks + 1;
  t.live.(idx) <- (requested lsl 8) lor fsi;
  t.live_words <- t.live_words + words;
  if t.live_words > t.peak_live_words then t.peak_live_words <- t.live_words;
  t.requested_words <- t.requested_words + requested

(* The I1 general heap: every allocation and deallocation goes through the
   software allocator; no AV fast path exists.  Like any general-purpose
   allocator it reuses freed blocks before carving fresh ones — its list
   walking is folded into the [software_alloc] cost constant (raw
   accesses), so the charge is identical either way; only the heap's
   capacity behaviour differs (a long-running workload no longer exhausts
   the wilderness while most of it sits freed). *)
let alloc_software t ~cost ~fsi ~words ~requested =
  Cost.software_alloc cost;
  t.software_traps <- t.software_traps + 1;
  let block =
    let head = Memory.peek t.mem (t.av_base + fsi) in
    if head = 0 then carve t ~fsi
    else begin
      Memory.poke t.mem (t.av_base + fsi) (Memory.peek t.mem (head + 1));
      t.free_pool_words <- t.free_pool_words - words;
      head
    end
  in
  let lf = Frame.lf_of_block block in
  record_alloc t ~lf ~fsi ~words ~requested;
  (match t.on_event with
  | Some f ->
    f (Fpc_trace.Event.Frame_alloc { words; via_ff = false; software = true })
  | None -> ());
  lf

(* [trapped] records whether this allocation had to replenish its free
   list — that is, whether the fast path degraded to the software one.
   The three references of the fast path are charged as one batch before
   the free-list words are touched; an empty list charges only its head
   fetch before trapping to the software allocator. *)
let[@inline] pop_free t ~cost ~fsi ~words ~requested ~trapped ~head =
  Cost.refs_n cost ~reads:2 ~writes:1;
  let next = Memory.peek t.mem (head + 1) in
  Memory.poke t.mem (t.av_base + fsi) next;
  t.fast_allocs <- t.fast_allocs + 1;
  t.free_pool_words <- t.free_pool_words - words;
  let lf = Frame.lf_of_block head in
  record_alloc t ~lf ~fsi ~words ~requested;
  (match t.on_event with
  | Some f ->
    f (Fpc_trace.Event.Frame_alloc { words; via_ff = false; software = trapped })
  | None -> ());
  lf

let[@inline] alloc_fast t ~cost ~fsi ~words ~requested =
  let head = Memory.peek t.mem (t.av_base + fsi) in
  if head <> 0 then pop_free t ~cost ~fsi ~words ~requested ~trapped:false ~head
  else begin
    Cost.refs_n cost ~reads:1 ~writes:0;
    replenish t ~cost ~fsi;
    let head = Memory.peek t.mem (t.av_base + fsi) in
    pop_free t ~cost ~fsi ~words ~requested ~trapped:true ~head
  end

let[@inline] alloc_class t ~cost ~fsi ~words ~requested =
  match t.mode with
  | Fast -> alloc_fast t ~cost ~fsi ~words ~requested
  | Software_only -> alloc_software t ~cost ~fsi ~words ~requested

let alloc_fsi t ~cost ~fsi =
  if fsi < 0 || fsi >= Size_class.class_count t.ladder then
    invalid_arg (Printf.sprintf "Alloc_vector.alloc_fsi: bad class %d" fsi);
  let words = Size_class.block_words t.ladder fsi in
  alloc_class t ~cost ~fsi ~words ~requested:words

let fsi_for_locals ladder n =
  match Size_class.index_for_block ladder (Frame.block_words_for_locals n) with
  | Some fsi -> fsi
  | None ->
    invalid_arg
      (Printf.sprintf "Alloc_vector.fsi_for_locals: %d words exceed the ladder" n)

let alloc_words t ~cost ~body_words =
  let request = Frame.block_words_for_locals body_words in
  match Size_class.index_for_block t.ladder request with
  | None -> invalid_arg "Alloc_vector.alloc_words: request exceeds the ladder"
  | Some fsi ->
    alloc_class t ~cost ~fsi ~words:(Size_class.block_words t.ladder fsi)
      ~requested:request

let free t ~cost ~lf =
  let idx = live_index t ~lf in
  let slot = if idx < 0 then -1 else t.live.(idx) in
  if slot < 0 then invalid_arg (Printf.sprintf "Alloc_vector.free: %d is not allocated" lf)
  else begin
    let fsi_known = slot land 0xFF in
    let requested = slot lsr 8 in
    t.live.(idx) <- -1;
    t.live_blocks <- t.live_blocks - 1;
    let block = Frame.block_of_lf lf in
    let words = Size_class.block_words t.ladder fsi_known in
    t.live_words <- t.live_words - words;
    t.requested_words <- t.requested_words - requested;
    t.frees <- t.frees + 1;
    (match t.mode with
    | Software_only ->
      (* The I1 heap frees through the software allocator too; the block is
         recycled onto the (never fast-read) free list for accounting. *)
      Cost.software_alloc cost;
      t.software_traps <- t.software_traps + 1;
      let head = Memory.peek t.mem (t.av_base + fsi_known) in
      Memory.poke t.mem (block + 1) head;
      Memory.poke t.mem (t.av_base + fsi_known) block
    | Fast ->
      (* the fsi word and list head fetched, the link and head stored:
         four references, charged as one batch *)
      Cost.refs_n cost ~reads:2 ~writes:2;
      let fsi = Memory.peek t.mem (lf + Frame.off_fsi) in
      let head = Memory.peek t.mem (t.av_base + fsi) in
      Memory.poke t.mem (block + 1) head;
      Memory.poke t.mem (t.av_base + fsi) block);
    t.free_pool_words <- t.free_pool_words + words;
    match t.on_event with
    | Some f -> f (Fpc_trace.Event.Frame_free { words; to_ff = false })
    | None -> ()
  end

let is_live t ~lf =
  let idx = live_index t ~lf in
  idx >= 0 && t.live.(idx) >= 0

type stats = {
  fast_allocs : int;
  frees : int;
  software_traps : int;
  live_blocks : int;
  live_words : int;
  peak_live_words : int;
  requested_words : int;
  free_pool_words : int;
  wilderness_used : int;
}

let stats (t : t) =
  {
    fast_allocs = t.fast_allocs;
    frees = t.frees;
    software_traps = t.software_traps;
    live_blocks = t.live_blocks;
    live_words = t.live_words;
    peak_live_words = t.peak_live_words;
    requested_words = t.requested_words;
    free_pool_words = t.free_pool_words;
    wilderness_used = t.wilderness - t.heap_base;
  }

let internal_fragmentation (t : t) =
  if t.live_words = 0 then 0.0
  else 1.0 -. (float_of_int t.requested_words /. float_of_int t.live_words)

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let check_list fsi =
    let seen = Hashtbl.create 16 in
    let rec walk node =
      if node = 0 then Ok ()
      else if Hashtbl.mem seen node then Error (Printf.sprintf "cycle in class %d" fsi)
      else if node < t.heap_base || node >= t.wilderness then
        Error (Printf.sprintf "class %d: node %d outside carved heap" fsi node)
      else if Memory.peek t.mem node <> fsi then
        Error
          (Printf.sprintf "class %d: node %d has fsi %d" fsi node (Memory.peek t.mem node))
      else if is_live t ~lf:(Frame.lf_of_block node) then
        Error (Printf.sprintf "class %d: node %d is both free and live" fsi node)
      else begin
        Hashtbl.add seen node ();
        walk (Memory.peek t.mem (node + 1))
      end
    in
    walk (Memory.peek t.mem (t.av_base + fsi))
  in
  let rec all fsi =
    if fsi >= Size_class.class_count t.ladder then Ok ()
    else
      let* () = check_list fsi in
      all (fsi + 1)
  in
  all 0
