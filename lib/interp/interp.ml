open Fpc_machine
open Fpc_core

type fastpath = {
  f_fast_transfers : int;
  f_slow_transfers : int;
  f_rs_pushes : int;
  f_rs_hits : int;
  f_rs_empty_pops : int;
  f_rs_flushes : int;
  f_rs_flushed_entries : int;
  f_rs_spills : int;
  f_bank_underflows : int;
  f_bank_overflows : int;
  f_bank_words_loaded : int;
  f_bank_words_spilled : int;
  f_ff_hits : int;
  f_ff_misses : int;
  f_frame_allocs : int;
  f_frame_frees : int;
}

let no_fastpath =
  {
    f_fast_transfers = 0;
    f_slow_transfers = 0;
    f_rs_pushes = 0;
    f_rs_hits = 0;
    f_rs_empty_pops = 0;
    f_rs_flushes = 0;
    f_rs_flushed_entries = 0;
    f_rs_spills = 0;
    f_bank_underflows = 0;
    f_bank_overflows = 0;
    f_bank_words_loaded = 0;
    f_bank_words_spilled = 0;
    f_ff_hits = 0;
    f_ff_misses = 0;
    f_frame_allocs = 0;
    f_frame_frees = 0;
  }

type outcome = {
  o_status : State.status;
  o_output : int list;
  o_stack : int list;
  o_instructions : int;
  o_cycles : int;
  o_mem_refs : int;
  o_calls : int;
  o_returns : int;
  o_other_xfers : int;
  o_fastpath : fastpath;
}

let boot ?tracer ~image ~engine ~instance ~proc ~args () =
  let st = State.create ?tracer ~image ~engine () in
  Transfer.start st ~instance ~proc ~args;
  st

let[@inline] signed v = Fpc_util.Bits.signed_of_unsigned ~width:16 v
let[@inline] word v = Fpc_util.Bits.to_word v

(* The dispatch loop is steady-state allocation-free: helpers are
   top-level functions (never per-instruction closures), operand plumbing
   is plain ints, and the decoded instruction comes from the image's
   shared predecode table.  OCaml 5 minor collections are stop-the-world
   across every domain, so allocation here is not just a single-domain
   cost — it is what made the service pool scale negatively. *)

let taken (st : State.t) target =
  st.metrics.jumps_taken <- st.metrics.jumps_taken + 1;
  Cost.jump st.cost;
  st.pc_abs <- target

(* The value of a two-operand operator on words [a] (left) and [b]: the
   one definition both executors compute it by.  DIV and MOD truncate
   toward zero, as OCaml's [/] and [mod] do, and trap on a zero divisor.
   Inlined into every caller, where it is one short jump table on the
   operator: as a call from the compiled tier's fused code it took a
   measurable share of a serving mix's samples. *)
let[@inline] binop (op : Fpc_isa.Opcode.t) a b =
  match op with
  | Add -> word (signed a + signed b)
  | Sub -> word (signed a - signed b)
  | Mul -> word (signed a * signed b)
  | Band -> a land b
  | Bor -> a lor b
  | Bxor -> a lxor b
  | Lt -> if signed a < signed b then 1 else 0
  | Le -> if signed a <= signed b then 1 else 0
  | Eq -> if signed a = signed b then 1 else 0
  | Ne -> if signed a <> signed b then 1 else 0
  | Ge -> if signed a >= signed b then 1 else 0
  | Gt -> if signed a > signed b then 1 else 0
  | Div | Mod ->
    let d = signed b in
    if d = 0 then raise (Transfer.Machine_trap State.Div_zero);
    word (match op with Div -> signed a / d | _ -> signed a mod d)
  | _ -> invalid_arg "Interp.binop: not a two-operand operator"

let exec (st : State.t) ~instr_pc (op : Fpc_isa.Opcode.t) =
  let stack = st.stack in
  match op with
  | Li n -> Eval_stack.push stack n
  | Lpd w -> Eval_stack.push stack w
  | Ll n -> Eval_stack.push stack (State.read_local st n)
  | Sl n -> State.write_local st n (Eval_stack.pop stack)
  | Lg n -> Eval_stack.push stack (State.read_global st n)
  | Sg n -> State.write_global st n (Eval_stack.pop stack)
  | Lla n -> Eval_stack.push stack (State.local_addr st n)
  | Lga n -> Eval_stack.push stack (State.global_addr st n)
  | Llx n ->
    let i = Eval_stack.pop stack in
    Eval_stack.push stack (State.read_local st (n + i))
  | Slx n ->
    let v = Eval_stack.pop stack in
    let i = Eval_stack.pop stack in
    State.write_local st (n + i) v
  | Lgx n ->
    let i = Eval_stack.pop stack in
    Eval_stack.push stack (State.read_global st (n + i))
  | Sgx n ->
    let v = Eval_stack.pop stack in
    let i = Eval_stack.pop stack in
    State.write_global st (n + i) v
  | Rload ->
    let a = Eval_stack.pop stack in
    Eval_stack.push stack (State.data_read st ~addr:a)
  | Rstore ->
    let v = Eval_stack.pop stack in
    let a = Eval_stack.pop stack in
    State.data_write st ~addr:a v
  | Ldfld i ->
    let a = Eval_stack.pop stack in
    Eval_stack.push stack (State.data_read st ~addr:(a + i))
  | Stfld i ->
    let v = Eval_stack.pop stack in
    let a = Eval_stack.peek stack in
    State.data_write st ~addr:(a + i) v
  | Newrec n -> (
    (* Long argument records and other heap records come from the same
       frame allocator (§5.3). *)
    match Fpc_frames.Alloc_vector.alloc_words st.allocator ~cost:st.cost ~body_words:n with
    | lf -> Eval_stack.push stack lf
    | exception Fpc_frames.Alloc_vector.Out_of_frame_heap ->
      raise (Transfer.Machine_trap State.Frame_heap_exhausted))
  | Freerec ->
    let a = Eval_stack.pop stack in
    Fpc_frames.Alloc_vector.free st.allocator ~cost:st.cost ~lf:a
  | Dup -> Eval_stack.push stack (Eval_stack.peek stack)
  | Drop -> ignore (Eval_stack.pop stack)
  | Swap ->
    let b = Eval_stack.pop stack in
    let a = Eval_stack.pop stack in
    Eval_stack.push stack b;
    Eval_stack.push stack a
  | Over ->
    let b = Eval_stack.pop stack in
    let a = Eval_stack.peek stack in
    Eval_stack.push stack b;
    Eval_stack.push stack a
  | Add | Sub | Mul | Div | Mod | Band | Bor | Bxor | Lt | Le | Eq | Ne | Ge | Gt ->
    let b = Eval_stack.pop stack in
    let a = Eval_stack.pop stack in
    Eval_stack.push stack (binop op a b)
  | Neg -> Eval_stack.push stack (word (-signed (Eval_stack.pop stack)))
  | Bnot -> Eval_stack.push stack (Eval_stack.pop stack lxor 0xFFFF)
  | J d -> taken st (instr_pc + d)
  | Jz d -> if Eval_stack.pop stack = 0 then taken st (instr_pc + d)
  | Jnz d -> if Eval_stack.pop stack <> 0 then taken st (instr_pc + d)
  | Efc n -> Transfer.call_external st ~lv_index:n
  | Lfc n -> Transfer.call_local st ~ev_index:n
  | Dfc a -> Transfer.call_direct st ~target_abs:a
  | Sdfc d -> Transfer.call_direct st ~target_abs:(instr_pc + d)
  | Xf ->
    let w = Eval_stack.pop stack in
    Transfer.xfer st ~dest_word:w
  | Ret -> Transfer.return_ st
  | Lrc -> Eval_stack.push stack st.return_ctx
  | Fork n -> Transfer.fork st ~nargs:n
  | Yield -> Transfer.yield st
  | Stopproc -> Transfer.stop_process st
  | Out -> State.emit st (Eval_stack.pop stack)
  | Nop -> ()
  | Brk -> raise (Transfer.Machine_trap State.Break)
  | Halt -> st.status <- State.Halted

(* A PC the predecode table cannot answer — outside the carved code
   region, or bytes that do not decode — takes the original live-decode
   path, reproducing its behaviour (including the illegal-instruction
   trap) exactly. *)
let step_slow (st : State.t) ~instr_pc =
  let fetch pc = Memory.peek_code_byte st.State.mem ~code_base:0 ~pc in
  match Fpc_isa.Opcode.decode ~fetch ~pc:instr_pc with
  | exception Invalid_argument _ ->
    Transfer.trap st (State.Illegal_instruction (fetch instr_pc))
  | op, len ->
    st.pc_abs <- instr_pc + len;
    exec st ~instr_pc op

let step (st : State.t) =
  if st.status = State.Running then begin
    st.metrics.instructions <- st.metrics.instructions + 1;
    Cost.dispatch st.cost;
    let instr_pc = st.pc_abs in
    let len = Fpc_isa.Predecode.len_at st.predecode instr_pc in
    if len > 0 then begin
      st.pc_abs <- instr_pc + len;
      exec st ~instr_pc (Fpc_isa.Predecode.op_at st.predecode instr_pc)
    end
    else step_slow st ~instr_pc
  end

(* A run loop counts its budget down in [remaining], outside the loop's
   frame, because a trap unwinds that frame: {!Transfer.catch_traps}
   delivers the trap and the loop is entered again where it left off. *)
let run_traced ?(max_steps = 20_000_000) st ~on_step =
  let fetch pc = Memory.peek_code_byte st.State.mem ~code_base:0 ~pc in
  let remaining = ref max_steps in
  let go (st : State.t) =
    while st.status = State.Running && !remaining > 0 do
      decr remaining;
      let pc_abs = st.pc_abs in
      (if Fpc_isa.Predecode.len_at st.predecode pc_abs > 0 then
         on_step ~pc_abs (Fpc_isa.Predecode.op_at st.predecode pc_abs) st
       else
         match Fpc_isa.Opcode.decode ~fetch ~pc:pc_abs with
         | op, _ -> on_step ~pc_abs op st
         | exception Invalid_argument _ -> ());
      step st
    done;
    if st.status = State.Running then st.status <- State.Trapped State.Step_limit
  in
  let rec loop () = if Transfer.catch_traps st go then loop () in
  loop ()

let run ?(max_steps = 20_000_000) st =
  let remaining = ref max_steps in
  let go (st : State.t) =
    while st.status = State.Running && !remaining > 0 do
      decr remaining;
      step st
    done;
    if st.status = State.Running then st.status <- State.Trapped State.Step_limit
  in
  let rec loop () = if Transfer.catch_traps st go then loop () in
  loop ()

(* One Bank_file.stats call, not one per field: the stats record is an
   allocation, and [outcome] sits on the service's per-job path. *)
let no_bank_stats =
  {
    Fpc_regbank.Bank_file.xfers = 0;
    overflows = 0;
    underflows = 0;
    words_written_back = 0;
    words_loaded = 0;
    flush_events = 0;
    flagged_flushes = 0;
    diversions = 0;
    c2_violations = 0;
  }

let outcome (st : State.t) =
  let m = st.metrics in
  let bs =
    match st.banks with
    | Some b -> Fpc_regbank.Bank_file.stats b
    | None -> no_bank_stats
  in
  let rs_pushes, rs_hits, rs_empty_pops, rs_flushes, rs_flushed, rs_spills =
    match st.rstack with
    | Some rs ->
      Fpc_ifu.Return_stack.
        ( pushes rs,
          fast_pops rs,
          empty_pops rs,
          flushes rs,
          flushed_entries rs,
          spills rs )
    | None -> (0, 0, 0, 0, 0, 0)
  in
  {
    o_status = st.status;
    o_output = State.output st;
    o_stack = Array.to_list (Eval_stack.contents st.stack);
    o_instructions = m.instructions;
    o_cycles = Cost.cycles st.cost;
    o_mem_refs = Cost.mem_refs st.cost;
    o_calls = m.calls;
    o_returns = m.returns;
    o_other_xfers = m.other_xfers;
    o_fastpath =
      {
        f_fast_transfers = m.fast_transfers;
        f_slow_transfers = m.slow_transfers;
        f_rs_pushes = rs_pushes;
        f_rs_hits = rs_hits;
        f_rs_empty_pops = rs_empty_pops;
        f_rs_flushes = rs_flushes;
        f_rs_flushed_entries = rs_flushed;
        f_rs_spills = rs_spills;
        f_bank_underflows = bs.Fpc_regbank.Bank_file.underflows;
        f_bank_overflows = bs.Fpc_regbank.Bank_file.overflows;
        f_bank_words_loaded = bs.Fpc_regbank.Bank_file.words_loaded;
        f_bank_words_spilled = bs.Fpc_regbank.Bank_file.words_written_back;
        f_ff_hits = m.ff_hits;
        f_ff_misses = m.ff_misses;
        f_frame_allocs = m.frame_allocs;
        f_frame_frees = m.frame_frees;
      };
  }

(* Code ranges for trace attribution: each procedure covers its fsi byte
   through the end of its body.  Instances of one module share code, so
   shared ranges are named after the module and deduplicated. *)
let procmap_of_image (image : Fpc_mesa.Image.t) =
  let ranges =
    Hashtbl.fold
      (fun (_inst, proc) (pi : Fpc_mesa.Image.proc_info) acc ->
        let ii = Fpc_mesa.Image.find_instance image pi.Fpc_mesa.Image.pi_instance in
        let lo = (2 * ii.Fpc_mesa.Image.ii_code_base) + pi.Fpc_mesa.Image.pi_entry_offset in
        let hi = lo + 1 + pi.Fpc_mesa.Image.pi_body_bytes in
        (ii.Fpc_mesa.Image.ii_module ^ "." ^ proc, lo, hi) :: acc)
      image.Fpc_mesa.Image.dir.Fpc_mesa.Image.procs []
    |> List.sort_uniq (fun (n, lo, hi) (n', lo', hi') ->
           match String.compare n n' with
           | 0 -> if lo <> lo' then Int.compare lo lo' else Int.compare hi hi'
           | c -> c)
  in
  Fpc_trace.Procmap.create ranges

let run_program ?max_steps ?tracer ~image ~engine ~instance ~proc ~args () =
  let st = boot ?tracer ~image ~engine ~instance ~proc ~args () in
  run ?max_steps st;
  st
