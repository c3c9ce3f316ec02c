(** Word-addressed simulated main storage.

    The machine is the 16-bit-word Mesa-style processor of the paper.  All
    runtime structures — frames, the GFT, link vectors, entry vectors,
    global frames, the AV allocation vector, code segments — live in this
    one store, so the experiments measure real memory-reference counts
    rather than asserted ones.

    Two access planes are provided:
    - {e metered} ([read]/[write]): charge the supplied {!Cost.t}; used by
      the interpreter and runtime machinery.
    - {e unmetered} ([peek]/[poke]): free; used by the linker to build the
      initial image, by tests, and by display code.

    Code is byte-granular (instructions are 1–3 bytes): bytes are packed two
    per word, high byte first, addressed by a word-aligned [code_base] plus
    a byte offset — exactly the [code base + PC] addressing of §5.

    The store itself is a byte buffer of two bytes per 16-bit word.  It
    holds no OCaml values, so the GC never scans it, and {!clone} and
    {!reset_from} copy it with [memcpy]/[memmove] rather than word by word
    through the write barrier. *)

type address = int
(** A word address. *)

type t

val create : ?cost:Cost.t -> size_words:int -> unit -> t
(** Fresh zeroed storage.  When [cost] is given, metered accesses charge it;
    it can be replaced later with {!set_cost}. *)

val clone : t -> t
(** An independent copy of the store: same contents, its own byte buffer
    (one [memcpy]), charging the original's meter (override with
    {!set_cost}).  This is what lets a linked image be
    cached and re-run — each execution works on a clone, leaving the
    pristine store untouched.  The copy's dirty map starts clean: it is content-identical
    to [t], so a later {!reset_from} against [t]'s store (or any
    content-equal pristine) has nothing to undo yet. *)

val size : t -> int
val set_cost : t -> Cost.t -> unit
val cost : t -> Cost.t option

(** {1 Dirty tracking and reset}

    Every mutation ([write], [poke], [prepaid_write], [poke_code_byte],
    [blit_bytes]) marks the containing 256-word page dirty.  [reset_from]
    copies only dirty pages back from a pristine store (one [memmove] of
    512 bytes each) and clears the map, so restoring a store to pristine
    costs time proportional to memory {e touched}, not to image size — the arena analogue of the paper's AV frame heap, where
    recycling beats general-purpose (re)allocation. *)

val reset_from : t -> pristine:t -> unit
(** Restore [t]'s store to [pristine]'s contents by copying back the dirty
    pages, then mark everything clean.  [t] must have been cloned (directly
    or transitively) from a store content-identical to [pristine]; sizes
    must match or [Invalid_argument] is raised.  The cost meter is left
    untouched — reset it separately ({!set_cost} / [Cost.reset]). *)

val dirty_pages : t -> int
(** Number of 256-word pages written since creation / the last
    [reset_from].  Exposed for tests and diagnostics. *)

(** {1 Metered access} *)

val read : t -> address -> int
val write : t -> address -> int -> unit
(** Values are truncated to 16 bits.  Out-of-range addresses raise
    [Invalid_argument]. *)

val read_code_byte : t -> code_base:address -> pc:int -> int
(** Fetch the byte at byte-offset [pc] from [code_base].  Charges one
    storage reference (the word containing the byte). *)

(** {1 Prepaid access}

    The compiled tier bills a block's static storage references together
    with its dispatches in one {!Cost.block_bill} on the machine's meter,
    and then touches the store with [prepaid_read]/[prepaid_write], whose
    addresses its guard has already proven in range.  Prepaid writes still
    truncate to a word and mark the page dirty, so {!reset_from} remains
    sound; the only things skipped are the per-access meter and bounds
    check.  Totals equal the same accesses made through {!read}/{!write}
    exactly. *)

val prepaid_read : t -> address -> int
(** Unmetered, unchecked word fetch; the caller guarantees the address is
    in range and already charged. *)

val prepaid_write : t -> address -> int -> unit
(** Unmetered, unchecked word store (truncated, page marked dirty); the
    caller guarantees the address is in range and already charged. *)

(** {1 Unmetered access} *)

val peek : t -> address -> int
val poke : t -> address -> int -> unit
val peek_code_byte : t -> code_base:address -> pc:int -> int
val poke_code_byte : t -> code_base:address -> pc:int -> int -> unit

val blit_bytes : t -> code_base:address -> bytes -> unit
(** Unmetered copy of a code segment's bytes into storage starting at
    [code_base] (byte offset 0). *)

val words_for_bytes : int -> int
(** Number of words needed to hold [n] code bytes. *)
