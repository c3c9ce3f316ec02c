(** The global frame table (§5.1).

    One 16-bit word per module instance: 14 bits of quad-aligned global
    frame address plus two spare bits giving the entry-point {e bias} in
    multiples of 32, so a module with more than 32 procedures gets several
    GFT entries sharing one global frame.  The table lives in simulated
    memory; the metered [read_entry] is the second indirection of an
    external call (Figure 1). *)

val capacity : int
(** 1024 entries (ten-bit gfi).  Entry 0 is reserved so that gfi 0 never
    denotes a module. *)

type t

val create : mem:Fpc_machine.Memory.t -> base:int -> t
(** The table occupies [capacity] words at [base]. *)

val base : t -> int

val set_entry : t -> gfi:int -> gf_addr:int -> bias:int -> unit
(** Unmetered (link-time).  [gf_addr] must be quad-aligned and below 2{^16};
    [bias] in 0..3. *)

val read_entry : t -> cost_mem_read:bool -> gfi:int -> int * int
(** [(gf_addr, bias)].  With [cost_mem_read] the access is metered (the
    running machine); otherwise it peeks (tools). *)

val read_entry_word : t -> cost_mem_read:bool -> gfi:int -> int
(** The raw packed entry word — the allocation-free form the transfer
    engine uses; split it with [w land 0xFFFC] (the global frame) and
    [w land 3] (the bias). *)

val pack_entry : gf_addr:int -> bias:int -> int
