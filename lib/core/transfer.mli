(** XFER — the single primitive for transferring control (§3), and the
    operations built from it: procedure call and return, coroutine
    transfer, process fork/switch, and traps.

    The essential model properties are preserved across every engine:

    - F1: everything needed to resume execution is in the context — a
      frame pointer suffices as a return link, and a procedure descriptor
      carries its environment.
    - F2: contexts are first-class, allocated and freed explicitly, and
      not necessarily LIFO.
    - F3: any context may be the argument of any XFER; the destination —
      not the caller — decides whether the transfer is a call, a coroutine
      resume, or something else.
    - F4: arguments and results ride the (register-resident) evaluation
      stack symmetrically.

    Engine-dependent behaviour: under a return stack (I3), call
    instructions defer the caller-PC / returnLink / globalFrame stores into
    the stack entry, and any non-LIFO event flushes those deferred stores
    to storage exactly as §6 prescribes.  Under register banks (I4) the
    argument record is delivered by renaming the stack bank (§7.2), and a
    processor free-frame stack serves common-size frames without touching
    the AV (§7.1).

    One call path and one return path serve both tiers: the compiled
    tier's call nodes call {!call_local}, {!call_external} and
    {!call_direct} — the functions the interpreter's dispatch calls — and
    its RETURN nodes and spliced leaf callees call {!return_}.  A transfer
    charges its storage references in batches and then touches the store
    unmetered; no batch crosses a trap point or a sub-event, so the
    meters, counters and (under a tracer) the event stream of a compiled
    run are the interpreter's by construction. *)

exception Machine_trap of State.trap_reason
(** Raised by transfer machinery on unrecoverable conditions;
    {!catch_traps} routes it through {!trap}. *)

val start : State.t -> instance:string -> proc:string -> args:int list -> unit
(** Boot: create the root context for [instance.proc] (returnLink NIL) and
    aim the machine at its first instruction. *)

val call_external : State.t -> lv_index:int -> unit
(** EXTERNALCALL: through the caller's link vector (entry [gf - 1 - lv],
    the word just below the global frame).  If the LV entry has been
    rebound to an existing frame context, the transfer becomes a coroutine
    resume — F3 in action. *)

val call_local : State.t -> ev_index:int -> unit
(** LOCALCALL: same environment and code base, one level of indirection. *)

val call_direct : State.t -> target_abs:int -> unit
(** DIRECTCALL / SHORTDIRECTCALL (the interpreter resolves the relative
    form): the two-byte global-frame header and fsi byte at the target are
    consumed as pseudo-instructions; with a return stack they ride the IFU
    prefetch and cost nothing. *)

val xfer : State.t -> dest_word:int -> unit
(** The raw XFER (XF instruction): transfer to a popped context word.
    Frame destinations are coroutine resumes (the current frame stays
    alive); descriptor destinations create a fresh activation;
    returnContext is set to the current frame either way. *)

val return_ : State.t -> unit
(** RETURN: free the current frame, set returnContext to NIL, XFER to the
    returnLink.  A NIL returnLink ends the current process (the root
    context has returned). *)

val fork : State.t -> nargs:int -> unit
(** Create a new process from a popped descriptor and [nargs] argument
    words; it joins the ready queue. *)

val yield : State.t -> unit
(** Round-robin process switch; flushes banks and the return stack
    ("as usual, when life gets complicated ... fall back to the general
    scheme", §7.1). *)

val stop_process : State.t -> unit
(** Terminate the current process and schedule the next, halting when none
    remain. *)

val trap : State.t -> State.trap_reason -> unit
(** Deliver a trap: recoverable reasons XFER to the installed handler
    (returnContext = the faulting frame, argument = the trap code); without
    a handler, or for fatal reasons, the machine stops.  A trap raised
    while entering the handler (say [Frame_heap_exhausted]) stops the
    machine in that trap; it never escapes. *)

val catch_traps : State.t -> (State.t -> unit) -> bool
(** [catch_traps st f] runs [f st] and delivers an [Eval_stack.Overflow]
    or [Underflow] or a {!Machine_trap} it raises through {!trap};
    [true] iff it delivered one.  The one handler of the machine's
    exceptions: [Interp.run], [Interp.run_traced] and [Tier.run] install
    it around their dispatch loops (again, in tail position, after each
    delivered trap), and the scheduler around an injected yield. *)
