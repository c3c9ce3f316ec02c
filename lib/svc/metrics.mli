(** Aggregate accounting for a pool: job counts by outcome, host time
    split compile/run/wall, image-cache and arena behaviour, and the total
    simulated work done (instructions, cycles, storage references).

    A {!t} is a mutable accumulator ({!record} itself is not
    synchronized): the pool keeps one per worker domain, feeds each from
    its own worker only, and {!merge_into}s the shards on demand;
    {!snapshot} freezes the merged result together with the wall clock
    and cache counters into the immutable record that {!render} (a
    {!Fpc_util.Tablefmt} table) and {!to_json} consume. *)

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

val note_shed : t -> unit
(** Count one request refused by admission control.  Shed requests never
    become {!Job.result}s (nothing ran), so they are counted here rather
    than through {!record}. *)

val observe_pending : t -> int -> unit
(** Raise the pending-jobs high-water mark if [pending] exceeds it. *)

val note_timer_deadline : t -> unit
(** Count one reply the reactor's timer wheel synthesized because a job's
    [deadline_ms] elapsed before its result came back (queue wait
    included).  The job itself still runs to a pool outcome — recorded by
    its worker as usual — so this counts extra replies, not jobs. *)

val merge_into : src:t -> into:t -> unit
(** Fold every count of [src] into [into] ([src] is left untouched).
    Counters add (arena readings included); the pending high-water mark
    merges with [max].  The
    pool keeps one single-writer accumulator per worker domain and
    merges the shards only when a snapshot is wanted, so recording a
    completion never touches shared state.  Not thread-safe; callers
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
  domains : int;
  jobs : int;
  succeeded : int;
  failed : int;  (** all failures, {e including} fuel/deadline exhaustion *)
  fuel_exhausted : int;
  deadline_exceeded : int;  (** jobs whose wall-clock deadline fired *)
  timer_deadlines : int;
      (** replies synthesized by the serving reactor's timer wheel when a
          deadline elapsed before the pool answered (see
          {!note_timer_deadline}) *)
  shed : int;  (** requests refused by admission control (never ran) *)
  max_pending_observed : int;  (** pending-jobs high-water mark *)
  cache : Image_cache.stats;
  arena : Arena.stats;
      (** every worker's arena counters, summed: hits reset a slot in
          place, misses cloned an image or created a state ([images],
          [states] and [store_bytes] count what is live across workers);
          all zero with arena reuse off *)
  compile_s : float;  (** summed across jobs (overlaps across domains) *)
  run_s : float;  (** summed across jobs (overlaps across domains) *)
  translate_s : float;
      (** host seconds spent obtaining compiled-tier translations, summed
          (on a translation-cache hit this is just the lookup) *)
  translation_hits : int;
      (** compiled-tier jobs whose image already carried its translation *)
  translation_misses : int;  (** compiled-tier jobs that had to translate *)
  lazy_translated : int;  (** procedures translated lazily, summed over jobs *)
  fused_calls : int;  (** calls retired through fused call sites, summed *)
  devirt_jobs : int;  (** jobs that ran a link-time-devirtualized image *)
  devirt_sites : int;
      (** late-bound call sites eligible for devirtualization, summed per
          job (a hot image's sites count once per job that ran it) *)
  devirt_proven : int;  (** of those, proven single-target *)
  devirt_rewritten : int;  (** of those, rewritten to DIRECTCALL *)
  devirt_short : int;  (** of the rewritten, the short ±512 KB form *)
  wall_s : float;
  jobs_per_sec : float;  (** jobs / wall_s; 0 when wall_s is 0 *)
  minor_words : int;
      (** OCaml minor-heap words allocated executing jobs, summed — the
          GC pressure the service put on every domain (minor collections
          are stop-the-world across all of them) *)
  minor_words_per_job : float;  (** minor_words / jobs; 0 with no jobs *)
  instructions : int;  (** total simulated instructions *)
  cycles : int;  (** total simulated cycles *)
  mem_refs : int;  (** total simulated storage references *)
  traced_jobs : int;  (** jobs run with [trace=1] *)
  trace_events : int;  (** events folded across traced jobs *)
  proc_costs : proc_cost list;
      (** sorted by exclusive cycles descending (name breaks ties);
          empty when nothing was traced *)
}

val snapshot : t -> wall_s:float -> cache:Image_cache.stats -> snapshot

val render : snapshot -> string
(** An aligned plain-text table, same formatting path as the
    experiments. *)

val to_json : snapshot -> Fpc_util.Jsonout.t
