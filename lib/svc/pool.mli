(** A fixed pool of OCaml 5 domains executing jobs from a shared queue.

    Workers pull specs from a mutex+condition work queue, compile through
    a shared {!Image_cache} (each execution gets a private image clone),
    and run the program to completion or until its fuel budget trips the
    [Step_limit] trap.  Every per-job failure mode — malformed source,
    type errors, machine traps, runaway loops, even unexpected
    exceptions — degrades to a [Job.Failed] result; nothing a job does
    can kill a worker or the pool.

    Simulated results are deterministic: a given spec produces the same
    {!Job.outcome} and simulated counters whatever the domain count and
    whatever else is in flight.  Only completion {e order} and host
    timings vary; {!poll}, {!await} and {!run_jobs} all return results
    sorted by submission id, so their output is reproducible.

    Completion bookkeeping is sharded per worker: each domain records
    its results and metrics into its own shard (single writer, its own
    tiny mutex) and the shards are only merged when {!poll}, {!await} or
    {!metrics} ask — completing a job touches no pool-wide state beyond
    the active-count decrement, and waiters are woken only when the pool
    actually drains, not once per completion. *)

type t

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count], at least 1. *)

val create :
  ?domains:int ->
  ?cache:Image_cache.t ->
  ?deliver:(Job.result -> unit) ->
  ?arena_reuse:bool ->
  unit ->
  t
(** Spawns [domains] workers (default {!recommended_domains}) sharing
    [cache] (default: a fresh one).  Raises [Invalid_argument] for
    [domains < 1].

    [arena_reuse] (default [true]) gives every worker a private {!Arena}
    ({!worker_arena}): repeat jobs against a cached image reset a
    long-lived image clone and machine state in place (dirty pages only)
    instead of cloning the full store and rebuilding the state per job — the steady state allocates
    almost nothing, so workers stop triggering the stop-the-world minor
    collections that made the pool scale negatively.  [false] restores
    clone-per-job (the arena-vs-clone baseline the benchmarks compare).
    Results are bit-identical either way.

    [deliver], when given, switches the pool into {e push} mode: each
    completed result is handed to [deliver] on the worker domain that
    produced it, before the job stops counting as pending, instead of
    accumulating for {!poll}/{!await} (which then return [[]]).  This is
    the zero-copy result handoff the TCP server rides: the result record
    goes straight from the worker to the consumer, with no shard list, no
    id sort and no second traversal.  [deliver] must be thread-safe, is
    called concurrently from every worker, and should be quick — it runs
    on the execution path.  Exceptions it raises are swallowed. *)

val worker_arena : Image_cache.t -> Arena.t
(** The arena a worker creates for itself: one image slot per pristine
    that [cache] can hold ([~capacity:(Image_cache.capacity cache)]), so
    a working set the cache holds without evicting runs without cloning.
    Use it to run {!execute} the way a worker does. *)

val execute : ?arena:Arena.t -> Image_cache.t -> int -> Job.spec -> Job.result
(** [execute ?arena cache id spec] runs one job on the calling thread and
    returns its result with id [id]: exactly what a worker does with each
    spec it dequeues, through [cache] and, when given, the worker-private
    [arena].  Never raises; every failure is a [Job.Failed] result.  A
    pool is not needed: this is how a profiler or a benchmark runs the
    worker's code on one thread. *)

val submit : t -> Job.spec -> int
(** Enqueue a job; returns its id (dense, starting at 0).  Raises
    [Invalid_argument] after {!shutdown}. *)

val pending : t -> int
(** Jobs queued or currently executing. *)

val poll : t -> Job.result list
(** Results completed since the last [poll]/[await], without blocking.
    {b Guaranteed order}: sorted by submission id, ascending — never
    completion order, which varies with the domain count.  Ids missing
    from one poll (still queued or executing) appear in a later
    [poll]/[await]; each id is returned exactly once overall. *)

val await : t -> Job.result list
(** Block until no job is queued or running, then return the results
    completed since the last [poll]/[await], sorted by id. *)

val drain : t -> unit
(** Block until no job is queued or executing, without collecting
    results — the quiescence hook a [deliver]-mode consumer (the TCP
    server's graceful drain) waits on.  Every submitted job has been
    delivered when this returns. *)

val metrics : t -> Metrics.snapshot
(** Aggregate over every job completed so far (the per-worker shards
    merged on demand); wall time is measured since [create]. *)

val shutdown : t -> unit
(** Drain the queue, then stop and join all workers.  Idempotent.
    Completed results remain available via {!poll}/{!await}. *)

val run_jobs :
  ?domains:int ->
  ?cache:Image_cache.t ->
  ?arena_reuse:bool ->
  Job.spec list ->
  Job.result list * Metrics.snapshot
(** One-shot convenience: create a pool, run every spec, shut down.
    Results come back sorted by id — the order the specs were given. *)
