(** Bit-field packing helpers for 16-bit machine words.

    The Mesa encoding of [Fast Procedure Calls] packs several small fields
    into 16-bit words (procedure descriptors, GFT entries).  These helpers
    centralise the masking arithmetic so the packed layouts are defined in
    one place and round-trip properties can be tested uniformly. *)

val mask : int -> int
(** [mask width] is the all-ones value of [width] bits.  [width] must be
    between 0 and 62. *)

val get : word:int -> pos:int -> width:int -> int
(** [get ~word ~pos ~width] extracts the [width]-bit field of [word]
    starting at bit [pos] (bit 0 is least significant). *)

val set : word:int -> pos:int -> width:int -> int -> int
(** [set ~word ~pos ~width v] returns [word] with the [width]-bit field at
    [pos] replaced by [v].  Raises [Invalid_argument] if [v] does not fit. *)

val fits : width:int -> int -> bool
(** [fits ~width v] is true when the non-negative value [v] is representable
    in [width] bits. *)

val signed_of_unsigned : width:int -> int -> int
(** Interpret a [width]-bit unsigned value as two's-complement signed. *)

val unsigned_of_signed : width:int -> int -> int
(** Encode a signed value into [width]-bit two's complement.  Raises
    [Invalid_argument] when out of range. *)

val to_word : int -> int
(** Truncate to 16 bits. *)

val byte_high : int -> int
(** High byte of a 16-bit word. *)

val byte_low : int -> int
(** Low byte of a 16-bit word. *)

val word_of_bytes : high:int -> low:int -> int
(** Reassemble a 16-bit word from its two bytes. *)
