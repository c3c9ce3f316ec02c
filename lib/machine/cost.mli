(** The cycle-level cost model for the simulated Mesa-style processor.

    The paper's machines (Alto, Dorado) are microcoded processors we do not
    have; per the reproduction plan we substitute a cost-accounting
    simulation.  Every architectural event of interest — main-storage
    reference, register-bank reference, instruction dispatch, IFU-followed
    transfer — is charged here.  Experiments report ratios of these counts,
    so the defaults only need to respect the *relationships* the paper
    states (§7.3: a register bank reference is one cycle, a cache access
    two, main storage several). *)

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
}

val default_params : params
(** mem_ref 4, cache_hit 2, bank_ref 1, dispatch 1, jump 1, trap 50,
    software_alloc 100. *)

type t
(** A mutable bundle of counters charged against one execution. *)

val create : ?params:params -> unit -> t
val params : t -> params

(** {1 Charging} *)

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
val add_cycles : t -> int -> unit

(** {1 Reading the meters} *)

val cycles : t -> int
val mem_reads : t -> int
val mem_writes : t -> int
val mem_refs : t -> int
(** [mem_reads + mem_writes]. *)

val bank_refs : t -> int
val dispatches : t -> int

val reset : t -> unit

type snapshot = {
  s_cycles : int;
  s_mem_reads : int;
  s_mem_writes : int;
  s_bank_refs : int;
  s_dispatches : int;
}

val snapshot : t -> snapshot

val delta : before:snapshot -> after:snapshot -> snapshot
(** Component-wise difference, for metering a region of execution. *)
