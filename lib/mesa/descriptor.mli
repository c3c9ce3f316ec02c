(** Context words and packed procedure descriptors.

    §4 defines a context as a variant record: either a reference to an
    existing frame, or a procedure descriptor — the abstract "creation
    context" that builds a fresh frame on every XFER to it.  §5 packs a
    descriptor into one 16-bit word: a one-bit tag, a ten-bit env field
    (a GFT index) and a five-bit code field (an entry-vector index).

    Packing scheme: local frames are quad-aligned, so a frame context is
    the frame address itself (low two bits 00); descriptors set bit 0:

    {v
    bit:       15..6    5..1   0
    Proc:      gfi      ev     1
    Frame:     lf (low two bits 00)
    Nil:       0
    v}

    The two spare bits of a GFT entry bias the entry-point index in
    multiples of 32, so one module instance can expose up to 128 entry
    points through up to four GFT entries (§5.1). *)

type t =
  | Nil
  | Frame of int  (** frame pointer LF (quad-aligned, non-zero) *)
  | Proc of { gfi : int; ev : int }
      (** [gfi]: global-frame-table index, 1..1023; [ev]: entry index 0..31
          (biased by the GFT entry) *)

val pack : t -> int
(** The 16-bit context word.  Raises [Invalid_argument] when a field is out
    of range or a frame address is unaligned. *)

val unpack : int -> t
(** Inverse of {!pack}.  Raises [Invalid_argument] on a malformed word
    (a "frame" address with bit 1 set). *)

(** {1 Packed-word accessors}

    Classify and split a context word without materialising the variant —
    the transfer engine's per-call path must not allocate.  [word_kind]
    returns {!word_proc}, {!word_frame}, or another code for a Nil or
    malformed word; for a {!word_frame} word the frame pointer is the
    word itself. *)

val word_proc : int  (** 1 *)

val word_frame : int  (** 2 *)

val word_kind : int -> int
val word_gfi : int -> int
val word_ev : int -> int

val equal : t -> t -> bool
val to_string : t -> string

val max_gfi : int  (** 1023 *)
