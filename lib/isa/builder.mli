(** Code emission buffer with labels and late-patched operands.

    The compiler emits each procedure's body through a builder; the linker
    later patches DIRECTCALL / SHORTDIRECTCALL operands once the absolute
    layout of code segments is known (§6's early binding is a link-time
    decision in this reproduction).

    Jumps to labels are always emitted in their wide (3-byte) form so that
    instruction offsets are stable before displacements are known. *)

type t

val create : unit -> t

val here : t -> int
(** Current byte offset from the start of this builder's code. *)

val emit : t -> Opcode.t -> unit
(** Append one instruction. *)

val emit_placeholder : t -> Opcode.t -> int
(** Append an instruction whose operand will be patched after linking
    (e.g. [Dfc 0]); returns the byte offset of its first byte. *)

val emit_efc_padded : t -> int -> int
(** Append an EXTERNALCALL through LV index [lv] in its 4-byte padded
    shape (wide EFC + two NOP pads — the same bytes the linker's D2
    fallback writes), returning the byte offset of its first byte.  The
    pads reserve room for a link-time rewrite to [Dfc]/[Sdfc] when an
    analysis proves the site single-target; unrewritten sites execute
    the pads on return. *)

type label

val new_label : t -> label

val place : t -> label -> unit
(** Define the label at the current offset.  A label may be placed once. *)

val jump : t -> [ `J | `Jz | `Jnz ] -> label -> unit
(** Append a wide jump to [label]; the displacement is patched by
    {!to_bytes}. *)

val to_bytes : t -> bytes
(** The finished code with all label displacements resolved.  Raises
    [Invalid_argument] if some referenced label was never placed. *)

(** {1 Link-time patching}

    These rewrite operand bytes of an already-laid-out instruction inside a
    byte buffer (an extracted code segment, before it is blitted into
    simulated memory). *)

val patch_dfc : bytes -> pos:int -> target:int -> unit
(** Rewrite the 24-bit operand of the [Dfc] at byte offset [pos]. *)

val rewrite_dfc_to_sdfc : bytes -> pos:int -> displacement:int -> unit
(** Turn a 4-byte [Dfc] at [pos] into a 3-byte [Sdfc] followed by a [Nop]
    pad, used when the linker finds the target within short reach but must
    preserve layout. *)
