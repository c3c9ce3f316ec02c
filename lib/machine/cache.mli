(** A set-associative data-cache model with LRU replacement.

    §7.3 of the paper argues that register banks beat a cache for local
    variables: a bank reference takes one cycle against two for a cache hit,
    and removing local-variable traffic frees roughly half the cache
    bandwidth for other data.  Experiment E9 replays the data-reference
    stream of compiled programs through this model, once with all data
    references and once with local-frame references diverted to banks. *)

type config = {
  line_words : int;  (** words per cache line (power of two) *)
  sets : int;  (** number of sets (power of two) *)
  ways : int;  (** associativity *)
}

val default_config : config
(** 4-word lines, 64 sets, 2 ways: a small 1982-plausible data cache. *)

type t

val create : ?config:config -> unit -> t

val access : t -> address:int -> write:bool -> [ `Hit | `Miss ]
(** Touch the word at [address]; updates LRU state and counters and reports
    whether it hit. *)

val hits : t -> int
val misses : t -> int
val accesses : t -> int

val hit_rate : t -> float
(** 0 when no accesses yet. *)

val cycles : t -> int
(** Total latency of all accesses so far, from {!Cost.params}: hits at
    [cache_hit_cycles], misses at [cache_hit_cycles + mem_ref_cycles *
    line_words] (fill the line). *)

val reset : t -> unit
