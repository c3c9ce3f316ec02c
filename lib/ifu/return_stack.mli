(** The IFU return stack of §6.

    "The IFU can keep a small stack of return information: frame pointer,
    global frame pointer GF and PC.  As long as calls and returns follow a
    LIFO discipline this allows returns to be handled as fast as calls."

    Each entry remembers how to resume a caller without touching main
    storage: its frame, global frame, code base, resume PC, and (for §7.1)
    the register bank shadowing its frame.  While an entry lives here, the
    caller's PC and the callee's returnLink have {e not} been written to
    memory — those stores are exactly what the fast path elides — so on any
    non-LIFO event the stack must be flushed through a writer that performs
    the deferred stores ("the frame pointer LF goes into the returnLink
    component of the next higher frame, and the PC goes into the PC
    component of LF").

    The stack stores entries and statistics; flush orchestration (who is
    the next-higher frame) belongs to the transfer engine, which walks
    the live {!slot}s and then calls {!flushed}.

    Entries are preallocated records rewritten in place, so the hot
    push/pop pair never touches the OCaml allocator.  "Absent" fields use
    sentinels ({!no_cb}, {!no_bank}) rather than options for the same
    reason. *)

type entry = {
  mutable r_lf : int;  (** caller frame pointer *)
  mutable r_gf : int;  (** caller global frame address *)
  mutable r_cb : int;
      (** caller code base (word address); {!no_cb} when the caller itself
          was entered by a DIRECTCALL and never had to materialise its
          code base (it is recovered from the global frame on demand) *)
  mutable r_pc_abs : int;  (** caller resume PC as an absolute byte address *)
  mutable r_bank : int;  (** bank shadowing [r_lf], or {!no_bank} (§7.1) *)
}

val no_cb : int
(** Sentinel (-1) for "code base not materialised". *)

val no_bank : int
(** Sentinel (-1) for "no register bank". *)

type t

val create : depth:int -> t
(** [depth] must be positive (the paper contemplates a small stack, ~4–16
    entries). *)

val depth : t -> int
val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val reset : t -> unit
(** Empty the stack and zero all statistics (arena reuse across jobs). *)

val set_on_event : t -> (Fpc_trace.Event.kind -> unit) option -> unit
(** Tracing hook: pushes, fast pops, flushes (with entry counts) and
    spills fire [Rs_*] events.  No-op when unset. *)

val push : t -> lf:int -> gf:int -> cb:int -> pc_abs:int -> bank:int -> unit
(** Raises [Invalid_argument] when full — the caller must flush first.
    Allocation-free. *)

val push_entry : t -> entry -> unit
(** [push] from an existing entry record (replay, tests). *)

val try_pop : t -> bool
(** The fast return path, allocation-free: [true] popped an entry — read
    it with {!popped} {e before the next push} — [false] means fall back
    to the general scheme (counted as an empty pop). *)

val popped : t -> entry
(** The slot just vacated by a successful {!try_pop}.  Valid until the
    next [push]. *)

val pop : t -> entry option
(** Option-returning wrapper over {!try_pop}/{!popped} (replay, tests).
    The returned entry is the live slot — copy it if it must survive a
    later push. *)

val peek : t -> entry option

val to_list : t -> entry list
(** Oldest first; fresh copies, safe to retain. *)

val second_oldest : t -> entry option
(** The entry just above the oldest, i.e. the frame that was called from
    the oldest entry's context. *)

val second_oldest_slot : t -> entry
(** As {!second_oldest}, but the live slot with no option wrapping; raises
    [Invalid_argument] with fewer than two entries.  Allocation-free. *)

val drop_oldest_slot : t -> entry
(** Remove and return the {e bottom} entry, making room without touching
    the hot top — the engine performs its deferred stores (a partial
    spill).  The stack must be non-empty; the slot stays valid until the
    next push.  Counted in {!spills}.  Allocation-free. *)

val drop_oldest : t -> entry option
(** Option-returning wrapper over {!drop_oldest_slot}. *)

val slot : t -> int -> entry
(** The live entry at position [i], [0] the oldest and [length - 1] the
    newest; raises [Invalid_argument] outside that range.  A flush walks
    the slots newest first (so each caller chains to the frame above it),
    performing their deferred stores, then calls {!flushed}. *)

val flushed : t -> unit
(** Empty the stack once its entries' deferred stores are performed,
    counting one flush of {!length} entries (and firing [Rs_flush]); a
    no-op on an empty stack.  Allocation-free. *)

(** {1 Statistics for experiment E1/E11} *)

val pushes : t -> int
val fast_pops : t -> int
val empty_pops : t -> int  (** returns that had to take the slow path *)

val flushes : t -> int
val flushed_entries : t -> int

val spills : t -> int
(** Oldest-entry spills caused by overflow. *)
