(** Trace events: one typed record per architectural happening.

    The paper's whole method is cost attribution per control transfer —
    §4's table charges every call, return, coroutine transfer and process
    switch with the storage references it performs — and these records make
    the same attribution available for {e arbitrary} programs instead of
    the fixed experiment tables.  The machine core emits one event per
    transfer (carrying the cycle and storage-reference deltas the operation
    itself was charged), and the fast-path machinery — frame allocator, IFU
    return stack, register banks — emits fine-grained sub-events so a
    profile can explain {e why} a transfer was slow.

    Events are plain data: no pointers into the machine.  The fields are
    mutable because the sink's ring reuses its slot records in place
    (the hot emit path allocates nothing); anything handed out by
    {!Sink.events} is a private {!copy} and safe to retain, but a record
    passed to a sink {e listener} is the live slot — read it
    synchronously, and {!copy} it if it must outlive the callback. *)

type kind =
  | Begin  (** boot: the initial entry into [Main.main] *)
  | Call  (** EFC/LFC/DFC/SDFC completing as a procedure call *)
  | Return
  | Coroutine  (** XFER to an existing context (F2/F3) *)
  | Switch  (** process switch: YIELD, STOPPROC, end-of-process resume *)
  | Fork  (** process creation — queues a context, no control transfer *)
  | Trap of int  (** trap taken, carrying {!Fpc_core.State.trap_code} *)
  | Frame_alloc of { words : int; via_ff : bool; software : bool }
      (** a frame (or §5.3 heap record) of [words] block words;
          [via_ff] = served by the processor free-frame stack (§7.1),
          [software] = took the software-allocator trap *)
  | Frame_free of { words : int; to_ff : bool }
  | Rs_push  (** return info captured by the IFU return stack (§6) *)
  | Rs_hit  (** a return served from the stack — the fast path *)
  | Rs_flush of int  (** non-LIFO event forced [n] deferred stores out *)
  | Rs_spill  (** overflow spilled the oldest entry *)
  | Bank_load of int  (** bank underflow loaded [n] words from storage (§7.1) *)
  | Bank_spill of int  (** bank eviction/flush wrote [n] dirty words back *)

type t = {
  mutable seq : int;  (** assigned by the sink; monotonically increasing *)
  mutable kind : kind;
  mutable pc : int;  (** absolute byte PC of the instruction responsible *)
  mutable target : int;
      (** PC after a transfer completes; -1 for non-transfers *)
  mutable depth : int;  (** dynamic call depth after the event *)
  mutable fast : bool;  (** transfer completed with zero storage references *)
  mutable cycles : int;  (** cumulative cycle meter {e after} the event *)
  mutable mem_refs : int;  (** cumulative storage references after the event *)
  mutable d_cycles : int;  (** cycles charged by this operation itself *)
  mutable d_mem_refs : int;
}

val copy : t -> t
(** A fresh record with the same fields — detach an event from a reused
    ring slot before retaining it. *)

val to_string : t -> string
(** One-line rendering for debug listings. *)

val zero : t
(** An inert placeholder (used to initialise ring storage). *)
