(** The cycle-level cost model for the simulated Mesa-style processor.

    The paper's machines (Alto, Dorado) are microcoded processors we do not
    have; per the reproduction plan we substitute a cost-accounting
    simulation.  A meter holds counts only, one per kind of architectural
    event: main-storage reads and writes, register-bank references,
    instruction dispatches, IFU-followed jumps, traps, software
    allocations and pointer diversions.  Cycles are derived: {!cycles} is
    the dot product of the counts with the one constant cost table
    {!params}, so cycle conservation holds by construction.  Experiments
    report ratios of these counts, so the table only needs to respect the
    {e relationships} the paper states (§7.3: a register bank reference is
    one cycle, a cache access two, main storage several). *)

type params = {
  mem_ref_cycles : int;  (** one main-storage word reference *)
  cache_hit_cycles : int;  (** data cache hit (§7.3 comparison) *)
  bank_ref_cycles : int;  (** register / register-bank reference *)
  dispatch_cycles : int;  (** per-instruction decode and dispatch *)
  jump_cycles : int;  (** taken jump the IFU can follow (§6 target speed) *)
  trap_cycles : int;  (** entering a software trap handler *)
  software_alloc_cycles : int;
      (** the software allocator invoked when an AV free list is empty
          (§5.3) or a frame is larger than the fast classes *)
  divert_cycles : int;
      (** a pointer dereference diverted to a register bank (§7.4), on top
          of its bank reference *)
}

val params : params
(** The cost table: mem_ref 4, cache_hit 2, bank_ref 1, dispatch 1, jump 1,
    trap 50, software_alloc 100, divert 4. *)

type t
(** A mutable bundle of event counts charged against one execution. *)

val create : unit -> t

(** {1 Charging}

    Each charge adds to counts only.  The batched charges take counts of
    either sign: the tier undoes a declined batch's bill by charging its
    negation. *)

val mem_read : t -> unit
val mem_write : t -> unit
val bank_ref : t -> unit
val dispatch : t -> unit

val bank_ref_n : t -> int -> unit
(** [n] bank references charged at once: totals equal [n] calls of
    {!bank_ref} exactly.  Pairs with {!Bank_file.raw_read}/[raw_write]
    the way {!refs_n} pairs with the prepaid storage accessors. *)

val refs_n : t -> reads:int -> writes:int -> unit
(** Batched storage references: totals equal [reads] calls of {!mem_read}
    plus [writes] calls of {!mem_write} exactly.  Pairs with
    {!Memory.prepaid_read}/{!Memory.prepaid_write}: a compiled block whose
    addresses are guard-checked up front charges its whole storage bill
    here and then touches the store raw. *)

val block_bill : t -> instrs:int -> reads:int -> writes:int -> unit
(** A compiled block's whole static bill in one call: [instrs]
    dispatches plus {!refs_n}.  Totals equal [instrs] calls of
    {!dispatch} and the references' single calls exactly. *)

val jump : t -> unit
val trap : t -> unit
val software_alloc : t -> unit

val divert : t -> unit
(** One pointer diversion (§7.4).  The bank reference the diverted access
    makes is charged separately, with {!bank_ref}. *)

(** {1 Reading the meters} *)

val cycles : t -> int
(** The counts weighted by {!params}. *)

val mem_reads : t -> int
val mem_writes : t -> int
val mem_refs : t -> int
(** [mem_reads + mem_writes]. *)

val bank_refs : t -> int
val dispatches : t -> int
val jumps : t -> int
val traps : t -> int
val software_allocs : t -> int
val diversions : t -> int

val reset : t -> unit
(** Zero every count. *)
