(** Local-frame layout.

    An allocation block is [fsi; pc; returnLink; globalFrame; locals...];
    the frame pointer LF addresses the first local, so the overhead words
    sit at negative offsets.  Keeping the locals at LF+0.. is what lets a
    register bank shadow "the first 16 words of some local frame" (§7.1)
    and lets the renamed stack bank deliver arguments as the first locals
    with no data movement (§7.2).

    LF is always a multiple of four (quad-aligned blocks), so a frame
    context word has low bits 00 — the tag encoding of
    {!Fpc_mesa.Descriptor} relies on this. *)

val overhead_words : int
(** Words between the block base and LF (4: fsi, pc, returnLink,
    globalFrame). *)

val off_fsi : int  (** -4 *)

val off_pc : int  (** -3; saved byte PC relative to the code base (§5.3) *)

val off_return_link : int  (** -2; a context word *)

val off_global_frame : int  (** -1; word address of the global frame *)

val lf_of_block : int -> int
val block_of_lf : int -> int

val block_words_for_locals : int -> int
(** Block request (in words) for a frame with [n] local/argument words. *)

(** {1 Metered access (the running machine)} *)

val write_pc : Fpc_machine.Memory.t -> lf:int -> int -> unit
val write_return_link : Fpc_machine.Memory.t -> lf:int -> int -> unit
val write_global_frame : Fpc_machine.Memory.t -> lf:int -> int -> unit

(** {1 Unmetered access (linker, tests, display)} *)

val peek_fsi : Fpc_machine.Memory.t -> lf:int -> int
