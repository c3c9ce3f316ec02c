(** The byte-code interpreter: fetch, decode, dispatch.

    Instruction fetch itself is unmetered in every engine (the machines of
    interest all have an instruction-fetch unit; its bandwidth is not what
    the paper varies) — what distinguishes I1..I4 is the {e data}
    references and redirects performed by transfers, frame allocation and
    variable access, all charged through {!Fpc_core.Transfer} and
    {!Fpc_core.State}. *)

type fastpath = {
  f_fast_transfers : int;  (** calls/returns completed with no storage reference *)
  f_slow_transfers : int;
  f_rs_pushes : int;  (** IFU return stack (§6); zero under I1/I2 *)
  f_rs_hits : int;
  f_rs_empty_pops : int;
  f_rs_flushes : int;
  f_rs_flushed_entries : int;
  f_rs_spills : int;
  f_bank_underflows : int;  (** register banks (§7); zero except under I4 *)
  f_bank_overflows : int;
  f_bank_words_loaded : int;
  f_bank_words_spilled : int;
  f_ff_hits : int;  (** free-frame-stack allocations (§7.1) *)
  f_ff_misses : int;
  f_frame_allocs : int;
  f_frame_frees : int;
}
(** Where the engine's fast paths hit and missed — per run, the counters
    behind the paper's E1/E11 tables. *)

val no_fastpath : fastpath
(** All-zero counters, for results that never reached the machine. *)

type outcome = {
  o_status : Fpc_core.State.status;
  o_output : int list;  (** words OUTput, in order *)
  o_stack : int list;  (** final evaluation stack, bottom first *)
  o_instructions : int;
  o_cycles : int;
  o_mem_refs : int;
  o_calls : int;
  o_returns : int;
  o_other_xfers : int;  (** XF, FORK, YIELD, process switches *)
  o_fastpath : fastpath;
}

val boot :
  ?tracer:Fpc_trace.Sink.t ->
  image:Fpc_mesa.Image.t ->
  engine:Fpc_core.Engine.t ->
  instance:string ->
  proc:string ->
  args:int list ->
  unit ->
  Fpc_core.State.t
(** A machine ready to execute [instance.proc args].  Raises [Not_found]
    for an unknown procedure. *)

val step : Fpc_core.State.t -> unit
(** Execute one instruction (no-op unless the status is [Running]).  Like
    {!exec} it may raise [Eval_stack.Overflow]/[Underflow] or
    {!Fpc_core.Transfer.Machine_trap}, with the PC already past the
    instruction: {!run} and the compiled tier's run loop step under
    {!Fpc_core.Transfer.catch_traps}, which delivers them as traps, and a
    caller stepping by hand wraps the step in it. *)

val binop : Fpc_isa.Opcode.t -> int -> int -> int
(** [binop op a b]: the word a two-operand operator (ADD, SUB, MUL, DIV,
    MOD, the three bitwise operators and the six signed comparisons)
    leaves on the stack, given its left operand [a] and right operand [b]
    as words.  Comparisons give 1 or 0; DIV and MOD truncate toward zero
    and raise {!Fpc_core.Transfer.Machine_trap} [Div_zero] when [b] is 0.
    {!exec} computes every such operator by it, and so does the compiled
    tier's fused code. *)

val taken : Fpc_core.State.t -> int -> unit
(** [taken st target]: a jump taken to [target] — counted, charged and
    the PC moved, as {!exec} does for J, JZ and JNZ. *)

val exec : Fpc_core.State.t -> instr_pc:int -> Fpc_isa.Opcode.t -> unit
(** The effect of one decoded instruction, exactly as the dispatch loop
    performs it — the PC must already have been advanced past the
    instruction.  May raise [Eval_stack.Overflow]/[Underflow] or
    {!Fpc_core.Transfer.Machine_trap}, as {!step} does.  Exposed so the
    compiled tier ({!Fpc_tier}) runs every instruction whose effect it
    does not prepay — inside a fused run, and the one that ends a node —
    by the single authoritative opcode semantics. *)

val run : ?max_steps:int -> Fpc_core.State.t -> unit
(** Step until the machine halts or traps; [max_steps] (default 20
    million) guards against runaways, recording a [Step_limit] trap; a
    non-positive budget records it before any instruction runs.  The
    trap handler ({!Fpc_core.Transfer.catch_traps}) is installed once
    around the loop and again after each delivered trap, so a run's OCaml
    stack does not grow with the traps it takes. *)

val run_traced :
  ?max_steps:int ->
  Fpc_core.State.t ->
  on_step:(pc_abs:int -> Fpc_isa.Opcode.t -> Fpc_core.State.t -> unit) ->
  unit
(** As {!run}, invoking [on_step] with each instruction about to execute —
    the debugger/teaching hook behind [fpc trace]. *)

val outcome : Fpc_core.State.t -> outcome

val procmap_of_image : Fpc_mesa.Image.t -> Fpc_trace.Procmap.t
(** Code ranges of every linked procedure, for attributing trace PCs.
    Instances of one module share code and are listed once, under the
    module's name. *)

val run_program :
  ?max_steps:int ->
  ?tracer:Fpc_trace.Sink.t ->
  image:Fpc_mesa.Image.t ->
  engine:Fpc_core.Engine.t ->
  instance:string ->
  proc:string ->
  args:int list ->
  unit ->
  Fpc_core.State.t
(** [boot] then [run]; returns the final state for inspection. *)
