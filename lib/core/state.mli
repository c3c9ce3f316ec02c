(** The running machine: registers, evaluation stack, process queue, and the
    per-run metering every experiment reads.

    Registers (§4): LF (current local frame), GF (current global frame),
    the PC — kept here as an {e absolute} byte address, with the code base
    CB tracked separately and possibly invalid ([-1]) after a DIRECTCALL
    whose fast path never needed it — the returnContext, and the evaluation
    stack.

    Local and global variable access routes through {!read_local} /
    {!write_local} so the register banks of §7 can intercept it; pointer
    dereferences route through {!data_read} / {!data_write} so §7.4's
    diversion logic applies. *)

type trap_reason =
  | Div_zero
  | Eval_overflow
  | Eval_underflow
  | Illegal_instruction of int
  | Break
  | Nil_context
  | Frame_heap_exhausted
  | Step_limit

val trap_code : trap_reason -> int
(** Small integer passed to an installed trap handler. *)

val trap_reason_to_string : trap_reason -> string

type status = Running | Halted | Trapped of trap_reason

type metrics = {
  mutable instructions : int;
  mutable calls : int;
  mutable returns : int;
  mutable other_xfers : int;  (** XF, FORK, YIELD, process switches *)
  mutable jumps_taken : int;
  mutable fast_transfers : int;  (** calls/returns completed with no storage reference *)
  mutable slow_transfers : int;
  mutable local_refs : int;
  mutable global_refs : int;
  mutable indirect_refs : int;
  mutable arg_words_stored : int;  (** argument words moved by prologue stores (I2 path) *)
  mutable arg_words_renamed : int;  (** argument words delivered by bank renaming (I4 path) *)
  mutable ff_hits : int;  (** free-frame-stack allocations *)
  mutable ff_misses : int;
  mutable frame_allocs : int;
  mutable frame_frees : int;
  mutable call_depth : int;  (** current dynamic nesting depth *)
  mutable procs_forked : int;  (** processes queued by FORK *)
  mutable procs_ended : int;
      (** processes retired — a root return with returnLink NIL, or STOP.
          The boot process counts too, so a halted single-process run
          reads 1.  Maintained in {!Transfer} (the compiled tier deopts
          every process operation there), so both tiers agree exactly. *)
  mutable peak_live_procs : int;
      (** high-water mark of running + ready processes; starts at 1 (the
          boot process) and moves only at FORK *)
  mutable tier_fast_instrs : int;
      (** instructions retired on the compiled tier's fused fast path
          (host-speed accounting only; invisible to the simulated meters) *)
  mutable tier_super_instrs : int;
      (** of those, instructions retired inside a multi-op superinstruction *)
  mutable tier_deopts : int;
      (** compiled-tier fallbacks to the interpreter's single-step path *)
  mutable tier_fused_calls : int;
      (** calls retired through a fused call site — the callee's body ran
          spliced into the caller's superinstruction (host-speed
          accounting only; invisible to the simulated meters) *)
  mutable tier_lazy_translations : int;
      (** procedures translated lazily during this run (first XFER into a
          not-yet-translated procedure) *)
}

(** A slot of the ready ring: one suspended process's state vector,
    rewritten in place so a switch allocates nothing. *)
type process = {
  mutable p_id : int;
  mutable p_lf : int;
  mutable p_rctx : int;
      (** the suspended process's returnContext.  Part of the saved state
          vector so a round-robin switch is transparent: a process
          preempted between an XFER resumption and its [RETCTX] read must
          see the same context word when it runs again.  0 (NIL) for a
          freshly FORKed process. *)
  p_stack : int array;
      (** the saved evaluation stack, bottom first; as long as the
          evaluation stack's capacity *)
  mutable p_depth : int;  (** live words of [p_stack] *)
}

type t = {
  image : Fpc_mesa.Image.t;
  mem : Fpc_machine.Memory.t;
  predecode : Fpc_isa.Predecode.t;
      (** the image's shared predecoded instruction table (host-speed
          only; instruction fetch is unmetered in every engine) *)
  cost : Fpc_machine.Cost.t;
  allocator : Fpc_frames.Alloc_vector.t;
  engine : Engine.t;
  simple : Simple_links.t option;  (** present iff engine kind is Simple *)
  rstack : Fpc_ifu.Return_stack.t option;
  banks : Fpc_regbank.Bank_file.t option;
  free_frames : int array;
      (** the §6 free-frame stack, as a preallocated buffer; live entries
          are [0 .. ff_top-1] *)
  mutable ff_top : int;
  ff_fsi : int;  (** class the free-frame stack serves; -1 when disabled *)
  mutable lf : int;
  mutable gf : int;
  mutable cb : int;  (** current code base; {!no_cb} when invalid *)
  mutable pc_abs : int;
  mutable fuel_limit : int;
      (** host-side absolute [metrics.instructions] bound for the
          compiled tier's self-looping nodes — set by [Tier.run], never
          read by the interpreter, no effect on meters *)
  mutable return_ctx : int;  (** packed context word; 0 is NIL *)
  mutable xr_gf : int;
  mutable xr_cb : int;
  mutable xr_pc : int;
  mutable xr_fsi : int;
      (** scratch destination registers: the transfer engine's resolver
          writes the callee's GF/CB/entry-PC/frame-class here and procedure
          entry consumes them — a record per call would be a per-call
          allocation.  [xr_cb = no_cb] marks a lazily-deferred code base. *)
  stack : Eval_stack.t;
  mutable status : status;
  mutable output_rev : int list;
  metrics : metrics;
  mutable ring : process array;
      (** the ready queue: a ring of reusable process slots whose length
          is a power of two; it doubles when full and keeps its capacity
          across {!reset}s *)
  mutable ring_head : int;  (** index of the oldest ready process *)
  mutable ring_len : int;  (** ready processes, the running one excluded *)
  mutable next_pid : int;
  mutable current_pid : int;
  mutable resumed_at : int;
      (** [metrics.instructions] when the running process last got the
          CPU from a process switch *)
  data_trace : (int * bool) Queue.t option;
  mutable tracer : Fpc_trace.Sink.t option;
      (** event sink; [None] (the default) keeps every instrumentation
          site down to one branch *)
}

val no_cb : int
(** Sentinel (-1) marking the CB register (and [xr_cb]) invalid. *)

val create :
  ?tracer:Fpc_trace.Sink.t -> image:Fpc_mesa.Image.t -> engine:Engine.t -> unit -> t
(** Fresh machine over [image]: resets the cost meters, rebuilds the frame
    allocator (software-only mode for I1), installs simple-link tables for
    I1 and the return stack / bank file / free-frame stack the engine asks
    for.  With [tracer], the allocator / return stack / bank file hooks are
    wired to emit their sub-events through it. *)

val reset : ?tracer:Fpc_trace.Sink.t -> t -> unit
(** Recycle the machine for a fresh run over the same (reset) image: the
    arena path.  Must be called {e after} [Image.clone_into] has restored
    the store — it reinstalls the I1 link tables, resets the allocator,
    return stack, bank file and free-frame stack, zeroes every register
    and meter, empties the ready ring (keeping its slots) and
    rewires the event hooks for the (possibly different) [tracer].  The observable state
    afterwards is exactly that of a fresh {!create}. *)

(** {1 The ready ring}

    FIFO order, as the paper's process queue.  A switch reserves the tail
    slot, writes the suspended state vector into it, enqueues it, and
    dequeues the head: no step allocates once the ring is large
    enough. *)

val ready_count : t -> int
(** Ready processes waiting behind the running one. *)

val reserve : t -> process
(** The slot just past the tail (doubling the ring if it is full), not yet
    queued: the caller fills it, then {!enqueue}s it, or drops it by
    enqueuing nothing. *)

val enqueue : t -> unit
(** Queue the slot the last {!reserve} returned. *)

val dequeue : t -> process
(** Remove and return the oldest ready process; the ring must not be
    empty.  The slot stays valid until the next {!reserve}. *)

val emit_sub : t -> Fpc_trace.Event.kind -> unit
(** Emit a sub-event (zero deltas) stamped with the current PC, depth and
    meters; no-op without a tracer. *)

val output : t -> int list
(** Values OUTput so far, in order. *)

val emit : t -> int -> unit

(** {1 Code base management} *)

val ensure_cb : t -> int
(** The current code base, reading it from GF word 0 (one metered
    reference) if the register is invalid. *)

(** {1 Variable access} *)

val read_local : t -> int -> int
val write_local : t -> int -> int -> unit
val read_global : t -> int -> int
val write_global : t -> int -> int -> unit

val local_addr : t -> int -> int
(** LLA: the storage address of local [n]; flags the frame when banks are
    on (§7.4 C1). *)

val global_addr : t -> int -> int

val data_read : t -> addr:int -> int
(** RLOAD: diverted through the banks when the address hits a shadowed
    frame window. *)

val data_write : t -> addr:int -> int -> unit

(** {1 Metering helpers} *)

val note_transfer_direction : t -> int -> unit
(** [+1] for a call, [-1] for a return: moves [metrics.call_depth], never
    below 0.  The depth and run-length statistics of §7.1 are derived from
    the transfer events, which carry the depth (E6's locality table,
    {!Fpc_trace.Profile}). *)
