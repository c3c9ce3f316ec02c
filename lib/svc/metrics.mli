(** Aggregate accounting for a pool: job counts by outcome, host time
    split compile/run/wall, image-cache and arena behaviour, and the total
    simulated work done (instructions, cycles, storage references).

    A {!t} is a mutable accumulator ({!record} itself is not
    synchronized): the pool keeps one per worker domain, feeds each from
    its own worker only, and {!merge_into}s the shards on demand;
    {!snapshot} freezes a copy of the merged {!counts} together with the
    wall clock and cache counters into the record that {!render} (a
    {!Fpc_util.Tablefmt} table) and {!to_json} consume.

    Only jobs are counted here.  Admission (sheds, the pending high-water
    mark, deadlines answered by the reactor's timer) belongs to the TCP
    server, which reports it next to these counts in [/stats]. *)

type counts = private {
  domains : int;
  mutable jobs : int;
  mutable succeeded : int;
  mutable failed : int;
      (** all failures, {e including} fuel/deadline exhaustion *)
  mutable fuel_exhausted : int;
  mutable deadline_exceeded : int;  (** jobs whose wall-clock deadline fired *)
  mutable compile_s : float;
      (** summed across jobs (overlaps across domains) *)
  mutable run_s : float;  (** summed across jobs (overlaps across domains) *)
  mutable translate_s : float;
      (** host seconds spent obtaining compiled-tier translations, summed
          (on a translation-cache hit this is just the lookup) *)
  mutable translation_hits : int;
      (** compiled-tier jobs whose image already carried its translation *)
  mutable translation_misses : int;  (** compiled-tier jobs that had to translate *)
  mutable lazy_translated : int;
      (** procedures translated lazily, summed over jobs *)
  mutable fused_calls : int;  (** calls retired through fused call sites, summed *)
  mutable devirt_jobs : int;  (** jobs that ran a link-time-devirtualized image *)
  mutable devirt_sites : int;
      (** late-bound call sites eligible for devirtualization, summed per
          job (a hot image's sites count once per job that ran it) *)
  mutable devirt_proven : int;  (** of those, proven single-target *)
  mutable devirt_rewritten : int;  (** of those, rewritten to DIRECTCALL *)
  mutable devirt_short : int;  (** of the rewritten, the short ±512 KB form *)
  mutable minor_words : int;
      (** OCaml minor-heap words allocated executing jobs, summed — the
          GC pressure the service put on every domain (minor collections
          are stop-the-world across all of them) *)
  mutable instructions : int;  (** total simulated instructions *)
  mutable cycles : int;  (** total simulated cycles *)
  mutable mem_refs : int;  (** total simulated storage references *)
  mutable traced_jobs : int;  (** jobs run with [trace=1] *)
  mutable trace_events : int;  (** events folded across traced jobs *)
  mutable arena : Arena.stats;
      (** every worker's arena counters, summed: hits reset a slot in
          place, misses cloned an image or created a state ([images],
          [states] and [store_bytes] count what is live across workers);
          all zero with arena reuse off *)
}
(** Every count a pool keeps, declared once.  Read-only outside this
    module; a {!snapshot} holds its own copy. *)

type t

val create : domains:int -> t

val record : t -> Job.result -> unit
(** Fold one completed job in.  Not thread-safe; callers serialize. *)

val set_arena : t -> Arena.stats -> unit
(** Record the owning worker's arena counters ({!Arena.stats}).  They are
    cumulative over the arena's life, so each call replaces the previous
    reading; {!merge_into} sums the readings across workers.  The pool
    calls this on every completion, under the shard lock it already
    holds for {!record}. *)

val merge_into : src:t -> into:t -> unit
(** Fold every count of [src] into [into] ([src] is left untouched).
    Counters add (arena readings included).  The pool keeps one
    single-writer accumulator per worker domain and merges the shards
    only when a snapshot is wanted, so recording a completion never
    touches shared state.  Not thread-safe; callers
    serialize per accumulator. *)

type proc_cost = {
  pc_name : string;
  pc_calls : int;
  pc_excl_cycles : int;
  pc_excl_refs : int;
}
(** Per-procedure exclusive cost aggregated across every traced job in
    the pool (the service-level view of the paper's cost attribution). *)

type snapshot = {
  counts : counts;
  cache : Image_cache.stats;
  wall_s : float;  (** since the pool was created *)
  proc_costs : proc_cost list;
      (** sorted by exclusive cycles descending (name breaks ties);
          empty when nothing was traced *)
}

val snapshot : t -> wall_s:float -> cache:Image_cache.stats -> snapshot

val render : snapshot -> string
(** An aligned plain-text table, same formatting path as the
    experiments.  Throughput (jobs per wall second) and minor words per
    job are derived here and in {!to_json}, each 0 when its divisor is. *)

val to_json : snapshot -> Fpc_util.Jsonout.t
