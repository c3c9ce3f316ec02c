open Fpc_machine
open Fpc_frames
open Fpc_mesa

exception Machine_trap of State.trap_reason

(* ------------------------------------------------------------------ *)
(* Transfer-event instrumentation.  A snapshot is taken where the cost
   classification baseline is taken, so an event's [fast] flag and deltas
   agree exactly with [classify]; every [metrics] increment emits exactly
   one event, which is what lets a profile's transfer counts equal the
   machine's.  All of it is skipped — one option match — when no tracer is
   installed, and every transfer path — calls and returns, coroutine
   XFERs, process switches and traps alike — is written without closures,
   in the explicit [match ... with exception] form, so an untraced
   transfer performs no OCaml allocation at all. *)

type snap = { s_pc : int; s_cycles : int; s_refs : int }

let[@inline] snap (st : State.t) =
  match st.State.tracer with
  | None -> None
  | Some _ ->
    Some { s_pc = st.pc_abs; s_cycles = Cost.cycles st.cost; s_refs = Cost.mem_refs st.cost }

let[@inline] emit_xfer (st : State.t) s kind ~target =
  match (st.State.tracer, s) with
  | Some sink, Some s ->
    let cycles = Cost.cycles st.cost and refs = Cost.mem_refs st.cost in
    Fpc_trace.Sink.emit_fields sink ~kind ~pc:s.s_pc ~target
      ~depth:st.metrics.call_depth ~fast:(refs = s.s_refs) ~cycles
      ~mem_refs:refs ~d_cycles:(cycles - s.s_cycles)
      ~d_mem_refs:(refs - s.s_refs)
  | _ -> ()

let ladder (st : State.t) = Alloc_vector.ladder st.allocator
let payload_of_fsi st fsi = Size_class.block_words (ladder st) fsi - Frame.overhead_words

let simple (st : State.t) =
  match st.simple with
  | Some s -> s
  | None -> invalid_arg "Transfer: Simple engine state missing"

(* ------------------------------------------------------------------ *)
(* Frame allocation: the §7.1 processor free-frame stack serves classes
   up to [ff_fsi] with no storage references ("in parallel with the rest
   of an XFER"); everything else takes the AV (or, under I1, software)
   path.  The result is packed [(lf lsl 8) lor granted_fsi] — returning a
   pair would be a per-call allocation. *)

let[@inline] alloc_via_av (st : State.t) fsi =
  match Alloc_vector.alloc_fsi st.allocator ~cost:st.cost ~fsi with
  | lf -> (lf lsl 8) lor fsi
  | exception Alloc_vector.Out_of_frame_heap ->
    raise (Machine_trap State.Frame_heap_exhausted)

let[@inline] alloc_frame (st : State.t) ~fsi =
  let m = st.metrics in
  m.frame_allocs <- m.frame_allocs + 1;
  if st.ff_fsi >= 0 && fsi <= st.ff_fsi then
    if st.ff_top > 0 then begin
      st.ff_top <- st.ff_top - 1;
      let lf = st.free_frames.(st.ff_top) in
      m.ff_hits <- m.ff_hits + 1;
      (match st.State.tracer with
      | None -> ()
      | Some _ ->
        State.emit_sub st
          (Fpc_trace.Event.Frame_alloc
             {
               words = Size_class.block_words (ladder st) st.ff_fsi;
               via_ff = true;
               software = false;
             }));
      (lf lsl 8) lor st.ff_fsi
    end
    else begin
      m.ff_misses <- m.ff_misses + 1;
      alloc_via_av st st.ff_fsi
    end
  else alloc_via_av st fsi

let[@inline] free_frame (st : State.t) ~lf =
  st.metrics.frame_frees <- st.metrics.frame_frees + 1;
  (match st.banks with
  | Some b -> Fpc_regbank.Bank_file.release_frame b ~lf
  | None -> ());
  (* The processor knows the class of frames it hands out, so returning a
     common-size frame to its free-frame stack costs nothing. *)
  let fsi = Memory.peek st.mem (lf + Frame.off_fsi) in
  if st.ff_fsi >= 0 && fsi = st.ff_fsi && st.ff_top < Array.length st.free_frames
  then begin
    st.free_frames.(st.ff_top) <- lf;
    st.ff_top <- st.ff_top + 1;
    match st.State.tracer with
    | None -> ()
    | Some _ ->
      State.emit_sub st
        (Fpc_trace.Event.Frame_free
           { words = Size_class.block_words (ladder st) fsi; to_ff = true })
  end
  else Alloc_vector.free st.allocator ~cost:st.cost ~lf

(* ------------------------------------------------------------------ *)
(* Deferred overhead stores (§6).  While a call's return information sits
   in the IFU return stack, neither the caller's PC nor the callee's
   returnLink/globalFrame have been stored; flushing performs exactly the
   paper's recipe: "the frame pointer LF goes into the returnLink
   component of the next higher frame, and the PC goes into the PC
   component of LF.  The global frame pointer can be discarded, since it
   can be recovered from the local frame" — which is why we must store it
   into the frame here. *)

let cb_of_entry (st : State.t) (e : Fpc_ifu.Return_stack.entry) =
  if e.r_cb >= 0 then e.r_cb else Memory.read st.mem e.r_gf

let flush_rstack (st : State.t) =
  match st.rstack with
  | None -> ()
  | Some rs ->
    (* Newest first, each caller chained to the frame above it; a loop
       over the live slots, so a switch's flush allocates nothing. *)
    let above = ref st.lf in
    for i = Fpc_ifu.Return_stack.length rs - 1 downto 0 do
      let e = Fpc_ifu.Return_stack.slot rs i in
      (* [Descriptor.pack (Frame lf)] is [lf] itself. *)
      Frame.write_return_link st.mem ~lf:!above e.r_lf;
      let cb = cb_of_entry st e in
      Frame.write_pc st.mem ~lf:e.r_lf (e.r_pc_abs - (2 * cb));
      Frame.write_global_frame st.mem ~lf:e.r_lf e.r_gf;
      above := e.r_lf
    done;
    Fpc_ifu.Return_stack.flushed rs

let[@inline] deferred (st : State.t) =
  match st.rstack with Some _ -> true | None -> false

(* Overflow: spill only the oldest entry — the recent window stays hot, so
   LIFO-local oscillation (the common case) keeps riding the fast path.
   The spilled entry's deferred stores go to storage now; the frame just
   above it is the second-oldest entry (or the running frame if the stack
   had a single entry). *)
let spill_oldest (st : State.t) rs =
  let above_lf =
    if Fpc_ifu.Return_stack.length rs >= 2 then
      (Fpc_ifu.Return_stack.second_oldest_slot rs).Fpc_ifu.Return_stack.r_lf
    else st.lf
  in
  let e = Fpc_ifu.Return_stack.drop_oldest_slot rs in
  Frame.write_return_link st.mem ~lf:above_lf e.r_lf;
  let cb = cb_of_entry st e in
  Frame.write_pc st.mem ~lf:e.r_lf (e.r_pc_abs - (2 * cb));
  Frame.write_global_frame st.mem ~lf:e.r_lf e.r_gf

(* Leaving the current context by a slow transfer: save the PC (always)
   and, in deferred mode, the globalFrame word that eager entry would have
   written at creation. *)
let[@inline] suspend_current (st : State.t) =
  let cb = if st.cb >= 0 then st.cb else State.ensure_cb st in
  let defer = deferred st in
  Cost.refs_n st.cost ~reads:0 ~writes:(if defer then 2 else 1);
  Memory.poke st.mem (st.lf + Frame.off_pc) (st.pc_abs - (2 * cb));
  if defer then Memory.poke st.mem (st.lf + Frame.off_global_frame) st.gf

(* ------------------------------------------------------------------ *)
(* Destination resolution.

   The resolver writes the callee's registers into the machine's scratch
   destination registers ([xr_gf], [xr_cb], [xr_pc], [xr_fsi]) instead of
   returning a record — the per-call record was the last allocation on the
   transfer path.  Callers name the resolution they want with a tag:

     [tag_local]      a = entry-vector index
     [tag_desc]       a = gfi, b = five-bit ev
     [tag_import]     a = link-vector index (Simple engine only)
     [tag_direct]     scratch already written by {!call_direct}: charge
                      the header fetches an IFU has not prefetched        *)

let tag_local = 0
let tag_desc = 1
let tag_import = 2
let tag_direct = 3

(* An I1 resolution of [-1] found no instance behind the global frame or
   descriptor: the destination names no context, the trap a NIL or
   garbled descriptor takes on the Mesa engines too. *)
let resolve_simple_pair (st : State.t) p =
  if p < 0 then raise (Machine_trap State.Nil_context);
  let abs = Simple_links.pair_abs p and gf = Simple_links.pair_gf p in
  let cb = Memory.read st.mem gf in
  let fsi = Memory.read_code_byte st.mem ~code_base:cb ~pc:(abs - (2 * cb)) in
  st.xr_gf <- gf;
  st.xr_cb <- cb;
  st.xr_pc <- abs + 1;
  st.xr_fsi <- fsi

let resolve_into (st : State.t) ~tag ~a ~b =
  if tag = tag_direct then begin
    if not (deferred st) then Cost.refs_n st.cost ~reads:3 ~writes:0
  end
  else if tag = tag_desc then
    match st.engine.Engine.kind with
    | Engine.Mesa ->
      (* Figure 1's chain: GFT -> global frame (code base) -> EV -> code. *)
      let w = Gft.read_entry_word st.image.Image.gft ~cost_mem_read:true ~gfi:a in
      let gf = w land 0xFFFC and bias = w land 3 in
      let cb = Memory.read st.mem gf in
      let entry_off = Memory.read st.mem (cb + (bias * 32) + b) in
      let fsi = Memory.read_code_byte st.mem ~code_base:cb ~pc:entry_off in
      st.xr_gf <- gf;
      st.xr_cb <- cb;
      st.xr_pc <- (2 * cb) + entry_off + 1;
      st.xr_fsi <- fsi
    | Engine.Simple ->
      resolve_simple_pair st
        (Simple_links.resolve_descriptor (simple st) st.image ~gfi:a ~ev:b)
  else if tag = tag_local then
    match st.engine.Engine.kind with
    | Engine.Mesa ->
      (* "This kind of call keeps the same environment and code base, and
         has only one level of indirection" (§5.1). *)
      let cb = State.ensure_cb st in
      let entry_off = Memory.read st.mem (cb + a) in
      let fsi = Memory.read_code_byte st.mem ~code_base:cb ~pc:entry_off in
      st.xr_gf <- st.gf;
      st.xr_cb <- cb;
      st.xr_pc <- (2 * cb) + entry_off + 1;
      st.xr_fsi <- fsi
    | Engine.Simple ->
      resolve_simple_pair st
        (Simple_links.resolve_own_by_gf (simple st) st.image ~gf:st.gf ~ev_index:a)
  else
    resolve_simple_pair st
      (Simple_links.resolve_import_by_gf (simple st) st.image ~gf:st.gf ~lv_index:a)

(* ------------------------------------------------------------------ *)
(* Entering a procedure: the common creation-context behaviour of §3's
   WHILE TRUE DO CreateNewContext; XFER loop, specialised as every real
   implementation must.  Consumes the scratch destination registers. *)

let enter_proc (st : State.t) ~ret_word ~fast =
  let packed = alloc_frame st ~fsi:st.xr_fsi in
  let lf_new = packed lsr 8 and granted_fsi = packed land 0xFF in
  if not fast then begin
    Cost.refs_n st.cost ~reads:0 ~writes:2;
    Memory.poke st.mem (lf_new + Frame.off_return_link) ret_word;
    Memory.poke st.mem (lf_new + Frame.off_global_frame) st.xr_gf
  end;
  (match st.banks with
  | Some banks ->
    (* §7.2: the stack bank is renamed to shadow the new frame, so the
       argument record becomes the first locals with no data movement.
       The raw stack buffer is passed (no copy); only then is the stack
       emptied. *)
    let depth = Eval_stack.depth st.stack in
    st.metrics.arg_words_renamed <- st.metrics.arg_words_renamed + depth;
    Fpc_regbank.Bank_file.on_call_n banks ~nargs:depth ~callee_lf:lf_new
      ~payload_words:(payload_of_fsi st granted_fsi)
      ~args:(Eval_stack.buffer st.stack);
    Eval_stack.clear st.stack
  | None ->
    (* The argument record stays on the evaluation stack; the callee's
       prologue stores it into locals — §5.2's "wasteful" path. *)
    st.metrics.arg_words_stored <- st.metrics.arg_words_stored + Eval_stack.depth st.stack);
  st.return_ctx <- ret_word;
  st.lf <- lf_new;
  st.gf <- st.xr_gf;
  st.cb <- st.xr_cb;
  st.pc_abs <- st.xr_pc;
  Cost.jump st.cost

let[@inline] resume_frame (st : State.t) ~dest_lf =
  Cost.refs_n st.cost ~reads:3 ~writes:0;
  let pc = Memory.peek st.mem (dest_lf + Frame.off_pc) in
  let gf = Memory.peek st.mem (dest_lf + Frame.off_global_frame) in
  let cb = Memory.peek st.mem gf in
  st.lf <- dest_lf;
  st.gf <- gf;
  st.cb <- cb;
  st.pc_abs <- (2 * cb) + pc;
  (match st.banks with
  | Some b -> Fpc_regbank.Bank_file.ensure_bank b ~lf:dest_lf
  | None -> ());
  Cost.jump st.cost

(* Coroutine resume: transfer to an existing frame, leaving the current
   one alive (F2/F3). *)
let transfer_to_frame (st : State.t) ~dest_lf =
  flush_rstack st;
  (match st.banks with
  | Some b -> Fpc_regbank.Bank_file.on_leave b ~lf:st.lf
  | None -> ());
  suspend_current st;
  let me = st.lf in
  resume_frame st ~dest_lf;
  st.return_ctx <- me

(* ------------------------------------------------------------------ *)
(* Calls. *)

let classify (st : State.t) before =
  if Cost.mem_refs st.cost = before then
    st.metrics.fast_transfers <- st.metrics.fast_transfers + 1
  else st.metrics.slow_transfers <- st.metrics.slow_transfers + 1

(* One call path for every caller: the resolution, and so its charge,
   comes before the frame allocation, the only trap point. *)
let do_call (st : State.t) ~before ~s ~tag ~a ~b =
  st.metrics.calls <- st.metrics.calls + 1;
  State.note_transfer_direction st 1;
  try
    (match st.banks with
    | Some bk -> Fpc_regbank.Bank_file.on_leave bk ~lf:st.lf
    | None -> ());
    (* [Descriptor.pack (Frame st.lf)] is [st.lf] itself. *)
    let ret_word = st.lf in
    (match st.rstack with
    | Some rs ->
      if Fpc_ifu.Return_stack.is_full rs then spill_oldest st rs;
      (* Capture the caller's registers before resolution: resolving a
         local destination may materialise CB (mutating [st.cb]), and the
         entry must record the register file as it was at the call. *)
      let e_lf = st.lf and e_gf = st.gf and e_cb = st.cb and e_pc = st.pc_abs in
      let e_bank =
        match st.banks with
        | Some bk -> Fpc_regbank.Bank_file.bank_index bk ~lf:st.lf
        | None -> Fpc_ifu.Return_stack.no_bank
      in
      resolve_into st ~tag ~a ~b;
      Fpc_ifu.Return_stack.push rs ~lf:e_lf ~gf:e_gf ~cb:e_cb ~pc_abs:e_pc
        ~bank:e_bank;
      enter_proc st ~ret_word ~fast:true;
      classify st before
    | None ->
      resolve_into st ~tag ~a ~b;
      suspend_current st;
      enter_proc st ~ret_word ~fast:false;
      (* storing the caller's PC makes it slow by construction *)
      st.metrics.slow_transfers <- st.metrics.slow_transfers + 1);
    emit_xfer st s Fpc_trace.Event.Call ~target:st.pc_abs
  with e ->
    emit_xfer st s Fpc_trace.Event.Call ~target:(-1);
    raise e

let call_external (st : State.t) ~lv_index =
  let before = Cost.mem_refs st.cost in
  let s = snap st in
  match st.engine.Engine.kind with
  | Engine.Simple -> do_call st ~before ~s ~tag:tag_import ~a:lv_index ~b:0
  | Engine.Mesa ->
    (* The link vector lives just below the global frame: entry i is the
       word at gf - 1 - i, so one reference reaches the context. *)
    let lv_word = Memory.read st.mem (st.gf - 1 - lv_index) in
    let k = Descriptor.word_kind lv_word in
    if k = Descriptor.word_proc then
      do_call st ~before ~s ~tag:tag_desc ~a:(Descriptor.word_gfi lv_word)
        ~b:(Descriptor.word_ev lv_word)
    else if k = Descriptor.word_frame then begin
      (* A rebound link naming an existing context: the destination makes
         this a coroutine resume, not a call — F3. *)
      st.metrics.other_xfers <- st.metrics.other_xfers + 1;
      match
        transfer_to_frame st ~dest_lf:lv_word;
        classify st before
      with
      | () -> emit_xfer st s Fpc_trace.Event.Coroutine ~target:st.pc_abs
      | exception e ->
        emit_xfer st s Fpc_trace.Event.Coroutine ~target:(-1);
        raise e
    end
    else raise (Machine_trap State.Nil_context)

let call_local (st : State.t) ~ev_index =
  let before = Cost.mem_refs st.cost in
  let s = snap st in
  do_call st ~before ~s ~tag:tag_local ~a:ev_index ~b:0

(* The header (SETGLOBALFRAME gf; ALLOCATEFRAME fsi) is part of the
   instruction stream: its three bytes always span the two code words
   from [target_abs / 2].  With an IFU return stack the prefetcher has
   already consumed it; without one, the machine pays the three fetches,
   charged as the call's resolution ([tag_direct]). *)
let call_direct (st : State.t) ~target_abs =
  let a = target_abs lsr 1 in
  let w0 = Memory.peek st.mem a in
  let w1 = Memory.peek st.mem (a + 1) in
  let window = (w0 lsl 16) lor w1 and shift = 8 * (target_abs land 1) in
  st.xr_gf <- (window lsr (16 - shift)) land 0xFFFF;
  st.xr_cb <- State.no_cb;
  st.xr_pc <- target_abs + 3;
  st.xr_fsi <- (window lsr (8 - shift)) land 0xFF;
  do_call st ~before:(Cost.mem_refs st.cost) ~s:(snap st) ~tag:tag_direct ~a:0
    ~b:0

(* ------------------------------------------------------------------ *)
(* Processes. *)

(* Everything here reads the slot before anything can reserve it again. *)
let resume_process (st : State.t) (p : State.process) =
  st.current_pid <- p.p_id;
  st.resumed_at <- st.metrics.instructions;
  (* State-vector restore: the saved evaluation stack returns from
     storage. *)
  for _ = 1 to p.p_depth do
    Cost.mem_read st.cost
  done;
  Eval_stack.restore st.stack p.p_stack ~depth:p.p_depth;
  (* the returnContext register rides the state vector (its save/restore
     is folded into the switch cost, like LF) so a switch is transparent
     even between an XFER resumption and the RETCTX read *)
  st.return_ctx <- p.p_rctx;
  resume_frame st ~dest_lf:p.p_lf

let end_process (st : State.t) =
  st.metrics.procs_ended <- st.metrics.procs_ended + 1;
  if State.ready_count st = 0 then st.status <- State.Halted
  else begin
    let p = State.dequeue st in
    st.metrics.other_xfers <- st.metrics.other_xfers + 1;
    let s = snap st in
    match resume_process st p with
    | () -> emit_xfer st s Fpc_trace.Event.Switch ~target:st.pc_abs
    | exception e ->
      emit_xfer st s Fpc_trace.Event.Switch ~target:(-1);
      raise e
  end

(* ------------------------------------------------------------------ *)
(* RETURN: free the frame, returnContext := NIL, XFER[returnLink]. *)

(* The general scheme, taken when the IFU return stack is absent or empty.
   The process-ending return emits before [end_process] so the event
   stream reads Return-then-Switch, matching what happened.  Fetching the
   returnLink makes every such return slow. *)
let return_slow (st : State.t) ~s ~returning =
  match
    let rl = Memory.read st.mem (returning + Frame.off_return_link) in
    if rl = 0 then free_frame st ~lf:returning
    else begin
      let k = Descriptor.word_kind rl in
      if k = Descriptor.word_frame then begin
        free_frame st ~lf:returning;
        st.return_ctx <- 0;
        resume_frame st ~dest_lf:rl
      end
      else if k = Descriptor.word_proc then begin
        (* A creation context as return link (F3): returning constructs a
           fresh activation of it. *)
        free_frame st ~lf:returning;
        st.return_ctx <- 0;
        resolve_into st ~tag:tag_desc ~a:(Descriptor.word_gfi rl)
          ~b:(Descriptor.word_ev rl);
        enter_proc st ~ret_word:0 ~fast:false
      end
      else raise (Machine_trap State.Nil_context)
    end;
    rl
  with
  | exception e ->
    emit_xfer st s Fpc_trace.Event.Return ~target:(-1);
    raise e
  | 0 ->
    emit_xfer st s Fpc_trace.Event.Return ~target:(-1);
    end_process st;
    st.metrics.slow_transfers <- st.metrics.slow_transfers + 1
  | _ ->
    st.metrics.slow_transfers <- st.metrics.slow_transfers + 1;
    emit_xfer st s Fpc_trace.Event.Return ~target:st.pc_abs

let return_ (st : State.t) =
  let s = snap st in
  st.metrics.returns <- st.metrics.returns + 1;
  State.note_transfer_direction st (-1);
  let returning = st.lf in
  match st.rstack with
  | Some rs when Fpc_ifu.Return_stack.try_pop rs -> (
    let before = Cost.mem_refs st.cost in
    try
      free_frame st ~lf:returning;
      let e = Fpc_ifu.Return_stack.popped rs in
      st.lf <- e.r_lf;
      st.gf <- e.r_gf;
      st.cb <- e.r_cb;
      st.pc_abs <- e.r_pc_abs;
      st.return_ctx <- 0;
      (match st.banks with
      | Some b -> Fpc_regbank.Bank_file.ensure_bank b ~lf:e.r_lf
      | None -> ());
      Cost.jump st.cost;
      classify st before;
      emit_xfer st s Fpc_trace.Event.Return ~target:st.pc_abs
    with e ->
      emit_xfer st s Fpc_trace.Event.Return ~target:(-1);
      raise e)
  | _ -> return_slow st ~s ~returning

(* ------------------------------------------------------------------ *)
(* Raw XFER. *)

let xfer (st : State.t) ~dest_word =
  st.metrics.other_xfers <- st.metrics.other_xfers + 1;
  let s = snap st in
  match
    let k = Descriptor.word_kind dest_word in
    if k = Descriptor.word_frame then transfer_to_frame st ~dest_lf:dest_word
    else if k = Descriptor.word_proc then begin
      flush_rstack st;
      (match st.banks with
      | Some b -> Fpc_regbank.Bank_file.on_leave b ~lf:st.lf
      | None -> ());
      suspend_current st;
      let ret_word = st.lf in
      resolve_into st ~tag:tag_desc ~a:(Descriptor.word_gfi dest_word)
        ~b:(Descriptor.word_ev dest_word);
      enter_proc st ~ret_word ~fast:false
    end
    else raise (Machine_trap State.Nil_context)
  with
  | () -> emit_xfer st s Fpc_trace.Event.Coroutine ~target:st.pc_abs
  | exception e ->
    emit_xfer st s Fpc_trace.Event.Coroutine ~target:(-1);
    raise e

(* A FORK grows the live-process set (the running process plus the ready
   ring); nothing else does, so the peak is tracked here alone.  It queues
   the slot [fork_body] filled. *)
let enqueue_fork (st : State.t) (p : State.process) ~lf ~depth =
  p.p_id <- st.next_pid;
  p.p_lf <- lf;
  p.p_rctx <- 0;
  p.p_depth <- depth;
  State.enqueue st;
  st.next_pid <- st.next_pid + 1;
  let m = st.metrics in
  m.procs_forked <- m.procs_forked + 1;
  let live = 1 + State.ready_count st in
  if live > m.peak_live_procs then m.peak_live_procs <- live

(* The arguments are popped straight into a reserved ring slot.  Too few
   of them empties the stack and underflows, as popping them one by one
   would. *)
let fork_body (st : State.t) ~nargs =
  let desc = Eval_stack.pop st.stack in
  if Eval_stack.depth st.stack < nargs then begin
    Eval_stack.clear st.stack;
    raise Eval_stack.Underflow
  end;
  let p = State.reserve st in
  for i = nargs - 1 downto 0 do
    p.p_stack.(i) <- Eval_stack.pop st.stack
  done;
  let k = Descriptor.word_kind desc in
  if k = Descriptor.word_frame then enqueue_fork st p ~lf:desc ~depth:nargs
  else if k = Descriptor.word_proc then begin
    resolve_into st ~tag:tag_desc ~a:(Descriptor.word_gfi desc)
      ~b:(Descriptor.word_ev desc);
    let packed = alloc_frame st ~fsi:st.xr_fsi in
    let lf_new = packed lsr 8 in
    Frame.write_return_link st.mem ~lf:lf_new 0;
    Frame.write_global_frame st.mem ~lf:lf_new st.xr_gf;
    let cb = if st.xr_cb >= 0 then st.xr_cb else Memory.read st.mem st.xr_gf in
    Frame.write_pc st.mem ~lf:lf_new (st.xr_pc - (2 * cb));
    if Engine.args_in_place st.engine then begin
      for i = 0 to nargs - 1 do
        Memory.write st.mem (lf_new + i) p.p_stack.(i)
      done;
      enqueue_fork st p ~lf:lf_new ~depth:0
    end
    else enqueue_fork st p ~lf:lf_new ~depth:nargs
  end
  else raise (Machine_trap State.Nil_context)

(* FORK queues a context without transferring control, so its event
   carries no destination. *)
let fork (st : State.t) ~nargs =
  st.metrics.other_xfers <- st.metrics.other_xfers + 1;
  let s = snap st in
  match fork_body st ~nargs with
  | () -> emit_xfer st s Fpc_trace.Event.Fork ~target:(-1)
  | exception e ->
    emit_xfer st s Fpc_trace.Event.Fork ~target:(-1);
    raise e

(* The running process's state vector goes into the tail slot before the
   head is taken, so the two slots are distinct. *)
let yield (st : State.t) =
  if State.ready_count st > 0 then begin
    st.metrics.other_xfers <- st.metrics.other_xfers + 1;
    let s = snap st in
    match
      flush_rstack st;
      (match st.banks with
      | Some b -> Fpc_regbank.Bank_file.flush_all b
      | None -> ());
      suspend_current st;
      let p = State.reserve st in
      let depth = Eval_stack.save st.stack p.p_stack in
      for _ = 1 to depth do
        Cost.mem_write st.cost
      done;
      p.p_id <- st.current_pid;
      p.p_lf <- st.lf;
      p.p_rctx <- st.return_ctx;
      p.p_depth <- depth;
      State.enqueue st;
      resume_process st (State.dequeue st)
    with
    | () -> emit_xfer st s Fpc_trace.Event.Switch ~target:st.pc_abs
    | exception e ->
      emit_xfer st s Fpc_trace.Event.Switch ~target:(-1);
      raise e
  end

let stop_process (st : State.t) =
  st.metrics.other_xfers <- st.metrics.other_xfers + 1;
  let s = snap st in
  flush_rstack st;
  (match st.banks with
  | Some b -> Fpc_regbank.Bank_file.flush_all b
  | None -> ());
  free_frame st ~lf:st.lf;
  (* The departure is its own event; a resumed successor adds a second
     Switch from [end_process]. *)
  emit_xfer st s Fpc_trace.Event.Switch ~target:(-1);
  end_process st

(* ------------------------------------------------------------------ *)
(* Traps: one more XFER client (§5.1: "several other instructions which
   combine an XFER with other operations, to support traps, coroutine
   linkages, and multiple processes"). *)

let catchable = function
  | State.Div_zero | State.Break | State.Eval_overflow | State.Eval_underflow -> true
  | State.Illegal_instruction _ | State.Nil_context | State.Frame_heap_exhausted
  | State.Step_limit ->
    false

(* Entering the handler can itself trap — a handler descriptor I1 cannot
   resolve, or a frame heap the handler's own recursion exhausted: the
   machine then parks in that trap, as it does for a trap no handler
   catches.  [Interp] and [Tier] both deliver traps here, so neither
   lets it escape. *)
let trap (st : State.t) reason =
  let s = snap st in
  Cost.trap st.cost;
  match Image.trap_handler st.image with
  | Descriptor.Proc { gfi; ev } when catchable reason -> (
    let kind = Fpc_trace.Event.Trap (State.trap_code reason) in
    match
      flush_rstack st;
      (match st.banks with
      | Some b -> Fpc_regbank.Bank_file.flush_all b
      | None -> ());
      suspend_current st;
      Eval_stack.clear st.stack;
      Eval_stack.push st.stack (State.trap_code reason);
      let ret_word = st.lf in
      resolve_into st ~tag:tag_desc ~a:gfi ~b:ev;
      enter_proc st ~ret_word ~fast:false
    with
    | () -> emit_xfer st s kind ~target:st.pc_abs
    | exception Machine_trap r ->
      emit_xfer st s kind ~target:(-1);
      st.status <- State.Trapped r
    | exception e ->
      emit_xfer st s kind ~target:(-1);
      raise e)
  | Descriptor.Proc _ | Descriptor.Frame _ | Descriptor.Nil ->
    st.status <- State.Trapped reason;
    emit_xfer st s (Fpc_trace.Event.Trap (State.trap_code reason)) ~target:(-1)

(* The one place the machine's exceptions become traps.  A run loop
   installs it once around its dispatch loop and, when it returns true,
   once more in tail position, so a run's OCaml stack does not grow with
   the traps it takes. *)
let catch_traps (st : State.t) f =
  match f st with
  | () -> false
  | exception Eval_stack.Overflow ->
    trap st State.Eval_overflow;
    true
  | exception Eval_stack.Underflow ->
    trap st State.Eval_underflow;
    true
  | exception Machine_trap reason ->
    trap st reason;
    true

(* ------------------------------------------------------------------ *)
(* Boot. *)

let start (st : State.t) ~instance ~proc ~args =
  let s = snap st in
  let pi = Image.find_proc st.image ~instance ~proc in
  let ii = Image.find_instance st.image instance in
  let packed = alloc_frame st ~fsi:pi.pi_fsi in
  let lf = packed lsr 8 and granted_fsi = packed land 0xFF in
  Frame.write_return_link st.mem ~lf 0;
  Frame.write_global_frame st.mem ~lf ii.ii_gf_addr;
  st.lf <- lf;
  st.gf <- ii.ii_gf_addr;
  st.cb <- ii.ii_code_base;
  st.pc_abs <- (2 * ii.ii_code_base) + pi.pi_entry_offset + 1;
  st.return_ctx <- 0;
  (match st.banks with
  | Some banks ->
    let args = Array.of_list args in
    st.metrics.arg_words_renamed <- st.metrics.arg_words_renamed + Array.length args;
    Fpc_regbank.Bank_file.on_call banks ~callee_lf:lf
      ~payload_words:(payload_of_fsi st granted_fsi) ~args
  | None ->
    st.metrics.arg_words_stored <- st.metrics.arg_words_stored + List.length args;
    List.iter (Eval_stack.push st.stack) args);
  st.status <- State.Running;
  emit_xfer st s Fpc_trace.Event.Begin ~target:st.pc_abs
