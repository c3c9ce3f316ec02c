(** The frame-size ladder of §5.3.

    "Frame sizes increase from a minimum of about 16 bytes in steps of about
    20%; less than 20 steps are needed to cover any size up to several
    thousand bytes."  Sizes here are in 16-bit words and denote whole
    allocation blocks (one overhead word holding the frame-size index, three
    frame-overhead words, then locals); every block size is a multiple of
    four words so frames stay quad-aligned (§5.1) and context words can use
    their low bits as the tag.

    The ladder is shared knowledge of the compiler (which assigns each
    procedure its frame-size index) and the software allocator (which
    replenishes free lists); the fast allocator itself never consults sizes,
    exactly as the paper notes. *)

type t

val make : ?growth:float -> unit -> t
(** The ladder from 8 words (16 bytes) to 2,048 (4 KB), each step
    [growth] (default 1.2) times the last.  Raises [Invalid_argument] for
    [growth <= 1]. *)

val default : t

val class_count : t -> int

val block_words : t -> int -> int
(** [block_words t fsi] is the block size of class [fsi] (0-based).  Raises
    [Invalid_argument] for an out-of-range index. *)

val index_for_block : t -> int -> int option
(** Smallest class whose block holds [words] words; [None] if even the
    largest class is too small. *)

val sizes : t -> int array
(** All block sizes, ascending. *)

val max_block_words : t -> int
