open Fpc_machine
open Fpc_mesa

type trap_reason =
  | Div_zero
  | Eval_overflow
  | Eval_underflow
  | Illegal_instruction of int
  | Break
  | Nil_context
  | Frame_heap_exhausted
  | Step_limit

let trap_code = function
  | Div_zero -> 1
  | Eval_overflow -> 2
  | Eval_underflow -> 3
  | Illegal_instruction _ -> 4
  | Break -> 5
  | Nil_context -> 6
  | Frame_heap_exhausted -> 7
  | Step_limit -> 8

let trap_reason_to_string = function
  | Div_zero -> "division by zero"
  | Eval_overflow -> "evaluation stack overflow"
  | Eval_underflow -> "evaluation stack underflow"
  | Illegal_instruction b -> Printf.sprintf "illegal instruction 0x%02X" b
  | Break -> "BRK"
  | Nil_context -> "XFER to NIL context"
  | Frame_heap_exhausted -> "frame heap exhausted"
  | Step_limit -> "step limit exceeded"

type status = Running | Halted | Trapped of trap_reason

type metrics = {
  mutable instructions : int;
  mutable calls : int;
  mutable returns : int;
  mutable other_xfers : int;
  mutable jumps_taken : int;
  mutable fast_transfers : int;
  mutable slow_transfers : int;
  mutable local_refs : int;
  mutable global_refs : int;
  mutable indirect_refs : int;
  mutable arg_words_stored : int;
  mutable arg_words_renamed : int;
  mutable ff_hits : int;
  mutable ff_misses : int;
  mutable frame_allocs : int;
  mutable frame_frees : int;
  mutable call_depth : int;
  mutable procs_forked : int;  (* processes queued by FORK *)
  mutable procs_ended : int;  (* processes retired (root return or STOP) *)
  mutable peak_live_procs : int;  (* running + ready high-water mark *)
  mutable tier_fast_instrs : int;  (* retired on the compiled tier's fused path *)
  mutable tier_super_instrs : int;  (* of those, inside multi-op superinstructions *)
  mutable tier_deopts : int;  (* compiled-tier falls back to the interpreter *)
  mutable tier_fused_calls : int;  (* calls retired through a fused call site *)
  mutable tier_lazy_translations : int;  (* procedures translated during this run *)
}

let fresh_metrics () =
  {
    instructions = 0;
    calls = 0;
    returns = 0;
    other_xfers = 0;
    jumps_taken = 0;
    fast_transfers = 0;
    slow_transfers = 0;
    local_refs = 0;
    global_refs = 0;
    indirect_refs = 0;
    arg_words_stored = 0;
    arg_words_renamed = 0;
    ff_hits = 0;
    ff_misses = 0;
    frame_allocs = 0;
    frame_frees = 0;
    call_depth = 0;
    procs_forked = 0;
    procs_ended = 0;
    peak_live_procs = 1;
    tier_fast_instrs = 0;
    tier_super_instrs = 0;
    tier_deopts = 0;
    tier_fused_calls = 0;
    tier_lazy_translations = 0;
  }

let zero_metrics m =
  m.instructions <- 0;
  m.calls <- 0;
  m.returns <- 0;
  m.other_xfers <- 0;
  m.jumps_taken <- 0;
  m.fast_transfers <- 0;
  m.slow_transfers <- 0;
  m.local_refs <- 0;
  m.global_refs <- 0;
  m.indirect_refs <- 0;
  m.arg_words_stored <- 0;
  m.arg_words_renamed <- 0;
  m.ff_hits <- 0;
  m.ff_misses <- 0;
  m.frame_allocs <- 0;
  m.frame_frees <- 0;
  m.call_depth <- 0;
  m.procs_forked <- 0;
  m.procs_ended <- 0;
  m.peak_live_procs <- 1;
  m.tier_fast_instrs <- 0;
  m.tier_super_instrs <- 0;
  m.tier_deopts <- 0;
  m.tier_fused_calls <- 0;
  m.tier_lazy_translations <- 0

type process = {
  mutable p_id : int;
  mutable p_lf : int;
  mutable p_rctx : int;
  p_stack : int array;
  mutable p_depth : int;
}

let ring_initial = 8

let fresh_process stack_capacity =
  { p_id = 0; p_lf = 0; p_rctx = 0; p_stack = Array.make stack_capacity 0; p_depth = 0 }

let no_cb = -1

type t = {
  image : Image.t;
  mem : Memory.t;
  predecode : Fpc_isa.Predecode.t;
  cost : Cost.t;
  allocator : Fpc_frames.Alloc_vector.t;
  engine : Engine.t;
  simple : Simple_links.t option;
  rstack : Fpc_ifu.Return_stack.t option;
  banks : Fpc_regbank.Bank_file.t option;
  free_frames : int array;
  mutable ff_top : int;
  ff_fsi : int;
  mutable lf : int;
  mutable gf : int;
  mutable cb : int;
  mutable pc_abs : int;
  mutable fuel_limit : int;
  (* Host-side step budget for the compiled tier's self-looping nodes:
     the absolute [metrics.instructions] bound the current [Tier.run]
     call enforces, mirrored here so a node whose back-edge targets its
     own boundary can iterate in place under exactly the admission check
     the dispatch loop would have applied.  Not part of the simulated
     machine: never read by the interpreter, no effect on meters. *)
  mutable return_ctx : int;
  (* Scratch destination registers written by the transfer engine's
     resolver and consumed by procedure entry — a [resolved] record per
     call would be a per-call allocation.  [xr_cb] = {!no_cb} means the
     DIRECTCALL fast path never materialised the code base. *)
  mutable xr_gf : int;
  mutable xr_cb : int;
  mutable xr_pc : int;
  mutable xr_fsi : int;
  stack : Eval_stack.t;
  mutable status : status;
  mutable output_rev : int list;
  metrics : metrics;
  mutable ring : process array;
  mutable ring_head : int;
  mutable ring_len : int;
  mutable next_pid : int;
  mutable current_pid : int;
  mutable resumed_at : int;
  data_trace : (int * bool) Queue.t option;
  mutable tracer : Fpc_trace.Sink.t option;
}

(* Sub-events arrive from the frame allocator, IFU return stack and bank
   file, which know only what happened — the machine stamps where (PC,
   depth) and when (the cumulative meters).  Their deltas are zero: the
   cost of the work they describe is part of the enclosing transfer's
   delta. *)
let emit_sub t kind =
  match t.tracer with
  | None -> ()
  | Some sink ->
    Fpc_trace.Sink.emit_fields sink ~kind ~pc:t.pc_abs ~target:(-1)
      ~depth:t.metrics.call_depth ~fast:false ~cycles:(Cost.cycles t.cost)
      ~mem_refs:(Cost.mem_refs t.cost) ~d_cycles:0 ~d_mem_refs:0

let wire_hooks t =
  let hook =
    match t.tracer with None -> None | Some _ -> Some (fun kind -> emit_sub t kind)
  in
  Fpc_frames.Alloc_vector.set_on_event t.allocator hook;
  Option.iter (fun rs -> Fpc_ifu.Return_stack.set_on_event rs hook) t.rstack;
  Option.iter (fun b -> Fpc_regbank.Bank_file.set_on_event b hook) t.banks

let create ?tracer ~image ~engine () =
  let cost = image.Image.cost in
  Cost.reset cost;
  let layout = image.Image.layout in
  let ladder = image.Image.ladder in
  let mode =
    match engine.Engine.kind with
    | Engine.Simple -> Fpc_frames.Alloc_vector.Software_only
    | Engine.Mesa -> Fpc_frames.Alloc_vector.Fast
  in
  let allocator =
    Fpc_frames.Alloc_vector.create ~mode ~mem:image.Image.mem ~ladder
      ~av_base:layout.Layout.av_base ~heap_base:layout.Layout.heap_base
      ~heap_limit:layout.Layout.heap_limit ()
  in
  let simple =
    match engine.Engine.kind with
    | Engine.Simple -> Some (Simple_links.install image)
    | Engine.Mesa -> None
  in
  let rstack =
    if engine.Engine.return_stack_depth > 0 then
      Some (Fpc_ifu.Return_stack.create ~depth:engine.Engine.return_stack_depth)
    else None
  in
  let banks =
    Option.map
      (fun config ->
        Fpc_regbank.Bank_file.create ~config ~mem:image.Image.mem ~cost ~ladder ())
      engine.Engine.banks
  in
  let ff_fsi =
    if engine.Engine.free_frame_stack_depth > 0 then
      Fpc_frames.Alloc_vector.fsi_for_locals ladder engine.Engine.free_frame_payload_words
    else -1
  in
  let stack = Eval_stack.create () in
  let t = {
    image;
    mem = image.Image.mem;
    predecode = Image.predecode image;
    cost;
    allocator;
    engine;
    simple;
    rstack;
    banks;
    free_frames = Array.make (Int.max 0 engine.Engine.free_frame_stack_depth) 0;
    ff_top = 0;
    ff_fsi;
    lf = 0;
    gf = 0;
    cb = no_cb;
    pc_abs = 0;
    fuel_limit = max_int;
    return_ctx = 0;
    xr_gf = 0;
    xr_cb = no_cb;
    xr_pc = 0;
    xr_fsi = 0;
    stack;
    status = Running;
    output_rev = [];
    metrics = fresh_metrics ();
    ring = Array.init ring_initial (fun _ -> fresh_process (Eval_stack.capacity stack));
    ring_head = 0;
    ring_len = 0;
    next_pid = 1;
    current_pid = 0;
    resumed_at = 0;
    data_trace = (if engine.Engine.collect_data_trace then Some (Queue.create ()) else None);
    tracer;
  }
  in
  (match tracer with None -> () | Some _ -> wire_hooks t);
  t

(* Reset must reproduce [create]'s observable initial state exactly over a
   recycled machine: the arena path calls [Image.clone_into] (store back to
   pristine, cost/allocator reset) and then this, so a reused machine is
   indistinguishable — status, meters, fastpath counters and
   event hooks included — from a freshly created one. *)
let reset ?tracer t =
  Cost.reset t.cost;
  Fpc_frames.Alloc_vector.reset t.allocator;
  (* The reset store lost the I1 link tables (the static region reverted
     to pristine and the cursor rewound); rebuild them exactly where
     [create]'s install put them. *)
  (match t.simple with Some sl -> Simple_links.reinstall sl t.image | None -> ());
  Option.iter Fpc_ifu.Return_stack.reset t.rstack;
  Option.iter Fpc_regbank.Bank_file.reset t.banks;
  t.ff_top <- 0;
  t.lf <- 0;
  t.gf <- 0;
  t.cb <- no_cb;
  t.pc_abs <- 0;
  t.fuel_limit <- max_int;
  t.return_ctx <- 0;
  t.xr_gf <- 0;
  t.xr_cb <- no_cb;
  t.xr_pc <- 0;
  t.xr_fsi <- 0;
  Eval_stack.clear t.stack;
  t.status <- Running;
  t.output_rev <- [];
  zero_metrics t.metrics;
  t.ring_head <- 0;
  t.ring_len <- 0;
  Option.iter Queue.clear t.data_trace;
  t.next_pid <- 1;
  t.current_pid <- 0;
  t.resumed_at <- 0;
  t.tracer <- tracer;
  wire_hooks t

(* ---- the ready ring ---- *)

let[@inline] ready_count t = t.ring_len

(* Doubling keeps the capacity a power of two, so a position is a mask
   away from its slot; the slots move over in queue order and the new
   half is fresh. *)
let grow_ring t =
  let old = t.ring in
  let n = Array.length old in
  let cap = Eval_stack.capacity t.stack in
  t.ring <-
    Array.init (2 * n) (fun i ->
        if i < n then old.((t.ring_head + i) land (n - 1)) else fresh_process cap);
  t.ring_head <- 0

let[@inline] reserve t =
  if t.ring_len = Array.length t.ring then grow_ring t;
  t.ring.((t.ring_head + t.ring_len) land (Array.length t.ring - 1))

let[@inline] enqueue t = t.ring_len <- t.ring_len + 1

let[@inline] dequeue t =
  let p = t.ring.(t.ring_head) in
  t.ring_head <- (t.ring_head + 1) land (Array.length t.ring - 1);
  t.ring_len <- t.ring_len - 1;
  p

let output t = List.rev t.output_rev
let emit t v = t.output_rev <- Fpc_util.Bits.to_word v :: t.output_rev

let[@inline] ensure_cb t =
  if t.cb >= 0 then t.cb
  else begin
    let cb = Memory.read t.mem t.gf in
    t.cb <- cb;
    cb
  end

let[@inline] trace t addr ~write =
  match t.data_trace with
  | Some q -> Queue.add (addr, write) q
  | None -> ()

let[@inline] read_local t n =
  t.metrics.local_refs <- t.metrics.local_refs + 1;
  trace t (t.lf + n) ~write:false;
  match t.banks with
  | Some banks -> Fpc_regbank.Bank_file.read_local banks ~lf:t.lf ~index:n
  | None -> Memory.read t.mem (t.lf + n)

let[@inline] write_local t n v =
  t.metrics.local_refs <- t.metrics.local_refs + 1;
  trace t (t.lf + n) ~write:true;
  match t.banks with
  | Some banks -> Fpc_regbank.Bank_file.write_local banks ~lf:t.lf ~index:n v
  | None -> Memory.write t.mem (t.lf + n) v

let[@inline] read_global t n =
  t.metrics.global_refs <- t.metrics.global_refs + 1;
  trace t (t.gf + Image.global_base + n) ~write:false;
  Memory.read t.mem (t.gf + Image.global_base + n)

let[@inline] write_global t n v =
  t.metrics.global_refs <- t.metrics.global_refs + 1;
  trace t (t.gf + Image.global_base + n) ~write:true;
  Memory.write t.mem (t.gf + Image.global_base + n) v

let local_addr t n =
  (match t.banks with
  | Some banks -> Fpc_regbank.Bank_file.flag_frame banks ~lf:t.lf
  | None -> ());
  t.lf + n

let global_addr t n = t.gf + Image.global_base + n

let[@inline] data_read t ~addr =
  t.metrics.indirect_refs <- t.metrics.indirect_refs + 1;
  trace t addr ~write:false;
  match t.banks with
  | Some banks -> Fpc_regbank.Bank_file.data_read banks ~addr
  | None -> Memory.read t.mem addr

let[@inline] data_write t ~addr v =
  t.metrics.indirect_refs <- t.metrics.indirect_refs + 1;
  trace t addr ~write:true;
  match t.banks with
  | Some banks -> Fpc_regbank.Bank_file.data_write banks ~addr v
  | None -> Memory.write t.mem addr v

(* The call depth for calls (+1) and returns (-1), which every transfer
   event carries.  Runs on every call and return, so it is inlined and
   compares ints only. *)
let[@inline] note_transfer_direction t dir =
  let m = t.metrics in
  m.call_depth <- Int.max 0 (m.call_depth + dir)
