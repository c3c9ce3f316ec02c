(** The compiled execution tier: threaded code over the predecoded image.

    The interpreter pays a fetch/decode dispatch per instruction even
    though the predecode table already did the decoding at link time.
    This tier goes one step further and translates the code region into
    an array of OCaml closures — one per reachable instruction boundary —
    so steady-state execution is a chain of direct calls with {e no}
    dispatch loop at all.  Straight-line runs of pure stack/variable
    instructions are fused into superinstructions: one stack-depth guard,
    one batched meter update ({!Fpc_machine.Cost.block_bill}), and
    peephole-collapsed dataflow (load/load/arith, compare-and-branch)
    that keeps intermediate values in OCaml locals instead of bouncing
    them through the evaluation stack.

    {2 Calls, returns and cross-call fusion}

    The tier has no call or return code of its own: every transfer runs
    {!Fpc_core.Transfer}'s, which is the interpreter's.  A call node is
    {!Fpc_core.Transfer.call_local}, {!Fpc_core.Transfer.call_external}
    or {!Fpc_core.Transfer.call_direct}, which resolve the destination
    live from the entry vector, the link vector and GFT, I1's link
    tables or the DIRECTCALL header; RETURN nodes call
    {!Fpc_core.Transfer.return_}.  The tier bakes no link word, so a
    rebind — host-side ({!Fpc_mesa.Linker.rebind_lv},
    {!Fpc_core.Simple_links.rebind}) or by the program's own store into
    a link vector or its code region — needs no notice.  What a call site
    is linked to at translate time is only a hint: when that callee is a
    {e known leaf} (a straight run of pure instructions ending in RETURN,
    with a bounded frame and no trap-capable op), its body is spliced
    into the caller's node and runs when the call lands on its entry PC
    with the machine running: one combined stack-depth guard admits
    body-plus-RETURN, the meters are charged in one batch — batched, but
    never {e reordered} across the call's frame-allocation trap point,
    which the call has already passed — and the RETURN is
    {!Fpc_core.Transfer.return_}.  A call that lands elsewhere leaves the
    machine at that exact boundary for the dispatch loop.

    {2 Lazy per-procedure translation}

    Translation is performed per procedure, on the first XFER into it,
    rather than for the whole image at attach time: a served job that
    touches three procedures of a fifty-procedure image translates
    three.  Procedure body ranges come from the image directory; every
    PC the machine dispatches lies inside one (control enters a
    procedure at its entry and jumps/returns/resumes stay inside
    bodies).  The translation — slots, procedure table, and translated
    flags — is shared by the pristine image and every clone; filling is
    serialised by a mutex and published per-boundary as immutable node
    records, so concurrent domains race safely (a stale read costs one
    deopted interpreter step, never an error).

    {2 One semantics}

    Equivalence is the contract: a translated run is {e bit-identical} to
    the interpreter — outcome, output, cycle / storage-reference /
    transfer meters, trap behaviour, (under a tracer) the exact event
    stream and (under [Engine.collect_data_trace]) the exact
    data-reference stream.  The tier has no exact executor of its own:
    whatever the fast path cannot prove runs on the interpreter's, at an
    exact instruction boundary.

    - A traced run is {!Fpc_interp.Interp.run} throughout.
    - A node whose first batch fails its stack-depth guard or declines
      to run (a data-reference trace, a banked frame not proven
      resident) retires one {!Fpc_interp.Interp.step}.
    - A trap-capable instruction (NEWREC, FREEREC, and a DIV or MOD
      unless a non-zero literal divisor directly precedes it in the same
      run) ends its node through {!Fpc_interp.Interp.exec}.
    - Undecodable bytes, and a node whose bound does not fit the
      remaining fuel, are stepped by the interpreter; a call that lands
      away from its spliced leaf returns to dispatch.

    Machine exceptions become traps in one handler,
    {!Fpc_core.Transfer.catch_traps}, installed by {!run} around its
    dispatch loop.  Host-speed only: simulated meters are unaffected by
    whether a run used this tier (that is the whole point). *)

type t

val translate : Fpc_mesa.Image.t -> t
(** Translate the image's carved code region {e eagerly}: every
    procedure's boundaries are filled up front (tests and tools; the
    serving path uses {!of_image}'s lazy filling).  Does not consult or
    update the image's cached attachment. *)

val of_image : Fpc_mesa.Image.t -> t * bool
(** The image's shared translation skeleton: reuses the one cached on
    the image directory or builds and attaches it.  Procedures translate
    lazily on first entry.  Returns [true] iff it was already attached (a
    translation-cache hit). *)

val run : ?max_steps:int -> t -> Fpc_core.State.t -> unit
(** Drive [st] to completion on the compiled tier: exactly
    {!Fpc_interp.Interp.run} (default [max_steps] 20 million, recording a
    [Step_limit] trap on expiry, and before any instruction for a
    non-positive budget), including resumability — a fuel-sliced caller
    may reset the status to [Running] and call again, with any budget up
    to [max_int], and the next instruction executes at the exact boundary
    where the budget ran out.
    A run under a tracer is {!Fpc_interp.Interp.run}.  Otherwise the
    first XFER into an untranslated procedure translates it (counted
    in [metrics.tier_lazy_translations]) and retries the same PC without
    retiring an instruction.  Instructions whose remaining budget cannot
    cover a whole block, and PCs without a node, are stepped by the
    interpreter (counted in [metrics.tier_deopts]); fast-path
    instructions are counted in [metrics.tier_fast_instrs] /
    [tier_super_instrs], and each fused-call execution in
    [metrics.tier_fused_calls].  A node's instruction count is an upper
    bound (block plus spliced callee), so fuel admission is conservative
    and expiry stays exact.  The trap handler is installed once around
    the dispatch loop and again after each delivered trap, so the OCaml
    stack does not grow with the traps a run takes. *)

val boundaries : t -> int
(** Number of byte boundaries with a compiled node (translated so far). *)

val fused_boundaries : t -> int
(** Of {!boundaries}, how many have a multi-instruction fused fast path
    (a superinstruction of two or more instructions). *)

val procs : t -> int
(** Procedure bodies the translation covers (deduplicated across
    instances sharing a module's code). *)

val procs_translated : t -> int
(** Of {!procs}, how many have been translated so far — under lazy
    filling, the procedures actually entered. *)

val invalidations : t -> int
(** Always 0: the tier bakes no link word, so no rebind invalidates a
    translation.  Kept for callers that still report the count. *)
