(** The register-bank file of §7.

    A small number of register banks (4–8 of ~16 words) each shadow the
    first words of some local frame.  The evaluation stack also lives in a
    bank; on a call that bank is {e renamed} to become the callee's local
    bank, so "the arguments will automatically appear as the first few
    local variables, without any actual data movement" (§7.2, after
    Patterson).  On return the freed frame's bank is released — "its
    contents are unimportant, and never need to be saved in storage".

    Overflow (a frame needs a bank and none is free) writes the {e oldest}
    bank out to its frame; underflow (an XFER lands on a frame with no
    bank) assigns and loads one.  §7.1 reports both happen on under 5 % of
    XFERs with four banks — experiment E6 sweeps this.

    Coherence invariant: while a frame is shadowed, the bank holds the
    truth for its first [shadow_len] words and the frame's storage copy is
    stale; an unshadowed frame is authoritative in storage.  Eviction,
    flush and flagged-frame exits restore storage; release (frame freed)
    discards the bank contents.

    Pointers to locals (§7.4) are served two ways, chosen by
    [pointer_policy]:
    - [Flush_flagged]: frames whose address has been taken (LLA) are
      flushed whenever control leaves them and reloaded on re-entry, so
      ordinary storage instructions see correct data from outside; a
      pointer dereference that hits a {e currently shadowed} frame (a
      same-context pointer, which Pascal-level languages can outlaw) is
      still diverted for safety and counted as a C2 violation.
    - [Divert]: every data reference into the frame region is compared
      against the banks and diverted to the matching register.  Each
      diversion is charged as one bank reference plus one
      {!Fpc_machine.Cost.divert}, whose penalty lives in the cost table
      ([Cost.params.divert_cycles]). *)

type pointer_policy = Flush_flagged | Divert

type config = {
  bank_count : int;
  bank_words : int;
  track_dirty : bool;
      (** "keep track of which registers have been written, to avoid the
          cost of dumping registers which have never been written" *)
  pointer_policy : pointer_policy;
}

val default_config : config
(** 4 banks of 16 words, dirty tracking on, [Flush_flagged]. *)

type t

val create :
  ?config:config ->
  mem:Fpc_machine.Memory.t ->
  cost:Fpc_machine.Cost.t ->
  ladder:Fpc_frames.Size_class.t ->
  unit ->
  t

val config : t -> config

val set_on_event : t -> (Fpc_trace.Event.kind -> unit) option -> unit
(** Tracing hook: bank underflow loads fire [Bank_load n] and write-backs
    (eviction, flagged flush, flush-all) fire [Bank_spill n], with [n] the
    words actually moved.  No-op when unset. *)

(** {1 Transfer-path hooks (called by the transfer engine)} *)

val reset : t -> unit
(** Return the file to its just-created state: all banks free, no stack
    bank, flags dropped, statistics zeroed (arena reuse across jobs). *)

val on_call :
  ?nargs:int -> t -> callee_lf:int -> payload_words:int -> args:int array -> unit
(** Rename the current stack bank into the callee's local bank, deposit the
    argument record in its first words (words beyond the shadow spill to
    storage), and acquire a fresh stack bank.  May evict.  Only the first
    [nargs] words of [args] are the record (default: all of it) — the
    transfer engine passes the eval stack's backing buffer directly to
    avoid materialising an argument array per call. *)

val on_call_n :
  t -> nargs:int -> callee_lf:int -> payload_words:int -> args:int array -> unit
(** As {!on_call} with a mandatory [nargs] — the transfer engine's form,
    avoiding the option wrapping a [?nargs] call site would allocate. *)

val ensure_bank : t -> lf:int -> unit
(** Transfer-in: if [lf] has no bank, assign one (possibly evicting) and
    load it from storage — the underflow path.  The shadow window size is
    recovered from the frame's fsi word (one storage reference). *)

val release_frame : t -> lf:int -> unit
(** The frame was freed: drop its bank with no write-back. *)

val on_leave : t -> lf:int -> unit
(** Control is leaving [lf]'s context by a transfer that keeps the frame
    alive.  Under [Flush_flagged], a flagged frame is written back and its
    bank released. *)

val flush_all : t -> unit
(** Process switch or trap: write every bank back and free them all. *)

val flag_frame : t -> lf:int -> unit
(** A pointer to one of [lf]'s locals now exists (LLA executed). *)

val is_flagged : t -> lf:int -> bool

(** {1 Data paths} *)

val read_local : t -> lf:int -> index:int -> int
(** Local variable read: bank reference if shadowed, else storage. *)

val write_local : t -> lf:int -> index:int -> int -> unit

val data_read : t -> addr:int -> int
(** Pointer dereference (RLOAD): diverted to a bank when [addr] falls in a
    shadowed frame's window, else a storage read. *)

val data_write : t -> addr:int -> int -> unit

val resident_len : t -> lf:int -> int
(** Words of [lf]'s resident shadow window, or -1 when no bank owns it —
    the residency guard for the raw accessors below. *)

val raw_read : t -> lf:int -> index:int -> int
(** Unmetered window access for a prepaid compiled block.  The caller
    must have checked [index < resident_len ~lf] with no intervening
    ownership change, charged the bank references ({!Cost.bank_ref_n})
    and counted the metric; data movement is then identical to
    {!read_local}'s bank-hit path. *)

val raw_write : t -> lf:int -> index:int -> int -> unit
(** As {!raw_read} for a write: truncates to a word and marks the
    register dirty, exactly like {!write_local}'s bank-hit path. *)

val has_bank : t -> lf:int -> bool

val bank_index : t -> lf:int -> int
(** Index of the bank shadowing [lf], or -1.  Allocation-free — the
    transfer engine's per-call lookup. *)

val bank_id : t -> lf:int -> int option
(** Option-returning wrapper over {!bank_index} (experiments, tests). *)

(** {1 Statistics} *)

type stats = {
  xfers : int;  (** on_call + ensure_bank invocations *)
  overflows : int;  (** evictions to make room *)
  underflows : int;  (** loads of unshadowed frames on transfer-in *)
  words_written_back : int;
  words_loaded : int;
  flush_events : int;
  flagged_flushes : int;
  diversions : int;
  c2_violations : int;  (** same-context pointer hits under Flush_flagged *)
}

val stats : t -> stats

val check_coherence : t -> (unit, string) result
(** Verify internal maps and bank ownership are consistent (tests). *)
