(** Full-width descriptor tables for the simple implementation I1 (§4).

    The natural implementation represents a procedure descriptor as an
    unpacked pair (pointer to code, pointer to environment) — two words
    instead of the Mesa encoding's one, and with no GFT or entry-vector
    indirection.  [install] materialises, for every instance, a
    {e simple link vector} (imports) and a {e simple entry vector} (its own
    procedures), each entry two words:

    {v
    word 0:  absolute entry byte address, low 16 bits
    word 1:  environment (global frame) address | (entry address bit 16)
    v}

    (The global frame is quad-aligned so its two low bits are free; bit 0
    carries the 17th address bit a 128 KB code space needs — exactly the
    kind of width pressure §5's packing exists to relieve.)

    Resolution therefore costs two storage reads and lands directly on the
    procedure: fewer references than the Mesa chain, at twice the table
    width and with none of its relocation freedoms. *)

type t

val install : Fpc_mesa.Image.t -> t
(** Builds the tables in the image's static region.  Call once per image
    before running under the [Simple] engine. *)

val reinstall : t -> Fpc_mesa.Image.t -> unit
(** Rebuild the tables into a reset image's static region, reusing [t]'s
    lookup tables (arena reuse: a reset erased the static region and rewound
    the cursor, so the same bases are re-carved and re-poked). *)

(** Resolutions return both halves packed into one immediate int —
    [(entry_abs_byte lsl 16) lor gf_addr] — so the per-call path allocates
    nothing.  Split them with {!pair_abs} / {!pair_gf}. *)

val pair_abs : int -> int
val pair_gf : int -> int

val resolve_import_by_gf : t -> Fpc_mesa.Image.t -> gf:int -> lv_index:int -> int
(** Packed [(entry_abs_byte, gf_addr)] of import [lv_index] of the
    instance whose global frame is [gf] (the machine's GF register),
    charging two metered reads; [-1], with no reference, when [gf] names
    no installed instance. *)

val resolve_own_by_gf : t -> Fpc_mesa.Image.t -> gf:int -> ev_index:int -> int
(** Same, for the instance's own procedure [ev_index]. *)

val rebind :
  t ->
  Fpc_mesa.Image.t ->
  instance:string ->
  lv_index:int ->
  target:string * string ->
  unit
(** Re-point one import pair at a new target (the I1 analogue of
    {!Fpc_mesa.Linker.rebind_lv}).  Every call resolves through the live
    table, on either tier, so the next call through it sees the new
    target.  Raises [Invalid_argument] on a bad index, [Not_found] on unknown
    names. *)

val resolve_descriptor : t -> Fpc_mesa.Image.t -> gfi:int -> ev:int -> int
(** Resolve a packed descriptor context under I1 semantics (an XFER with a
    first-class procedure value): the descriptor record is read at
    full width — two metered reads.  [-1], with no reference, when no
    instance owns [gfi]. *)

val table_words : t -> int
(** Total words the simple tables occupy (space accounting for E2). *)
