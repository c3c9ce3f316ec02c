(** Per-worker reusable execution contexts: reset-per-job instead of
    clone-per-job.

    The pool's original discipline gave every job a private
    {!Fpc_mesa.Image.clone} and a fresh {!Fpc_core.State.create} — a copy
    of the whole 128 KB store plus a constellation of fresh arrays, stacks
    and hash tables, all garbage the moment the job ended.  Under OCaml 5
    every minor collection stops {e all} domains, so that garbage was not
    a private cost: it is what kept the pool from scaling.

    A miss still pays that clone, or that state when only the engine is
    new to a cached image.  The store is a pointer-free byte buffer
    ({!Fpc_machine.Memory}), so the clone is one [memcpy] that the GC
    never scans; a hit's reset copies back only the dirty 512-byte pages.

    An arena keeps, per cached pristine image, one long-lived clone,
    and over it one long-lived machine state per engine that has run on
    it.  Engines whose calling conventions compile a source to the same
    pristine (I1 and I2 share external linkage) share the clone: every
    acquire resets the store to pristine first, so the store carries
    nothing from one engine's run into the next.  A repeat job {e resets}
    them: the image blits back only the pages the previous run dirtied
    (tracked by {!Fpc_machine.Memory} at 256-word granularity), and the
    state rewinds its stacks, registers and meters in place.  The analogy
    is the classic allocator trick of reusing a pooled buffer instead of
    allocating: the steady-state cost becomes proportional to what the
    job {e touched}, not to the size of the machine.

    The pool bounds each worker's arena by the image cache it serves
    ({!Image_cache.capacity}), so any working set the cache holds without
    evicting, the arena holds without cloning.

    An arena is deliberately {b not} thread-safe — each worker domain
    owns exactly one and nothing else ever sees it, so the hot path has
    no lock, no atomic and (on a hit) no allocation beyond the few words
    the reset itself touches.

    Images are keyed by the image cache's content key plus the tier
    name, and states within an image by the engine name.  Content
    addressing makes slots safe across cache eviction: if the pristine is
    evicted and later recompiled, the new pristine is word-identical, so
    resetting an old image from it is still exact. *)

type t

type slot
(** One reusable context: one engine's machine state over its image's
    private clone (shared with the other engines that ran on it). *)

val create : ?capacity:int -> unit -> t
(** [capacity] (default {!Image_cache.default_capacity}, 64) bounds the
    number of live images; beyond it the least-recently-used image is
    dropped with every state over it (they become garbage — correct,
    just no longer zero-allocation for those keys). *)

val capacity : t -> int

val acquire :
  t ->
  key:string ->
  engine:Fpc_core.Engine.t ->
  engine_name:string ->
  ?tier_name:string ->
  pristine:Fpc_mesa.Image.t ->
  unit ->
  slot
(** Find or build [engine_name]'s slot on the image for
    [(key, tier_name)].  The image is reset from [pristine] (dirty pages
    only) if it is cached, and cloned from it if not; on the engine's
    first use of the image a state is created over the reset store.
    Either way the returned slot's image equals [pristine] word-for-word.
    Each acquire counts one hit, or one miss when it cloned an image or
    created a state.  The slot's {e state} is not yet reset — build any
    tracer against {!image} first, then {!checkout}.  [key] must be
    [pristine]'s content key (see {!Image_cache.find_pristine});
    [engine_name] distinguishes engine configurations sharing an image,
    and [tier_name] (default [""]) keeps compiled-tier images — which
    carry the shared translation attachment — apart from
    interpreter-tier ones. *)

val image : slot -> Fpc_mesa.Image.t
(** The slot's private runnable image (for {!Fpc_interp.Profiler.create}
    and the interpreter). *)

val checkout : ?tracer:Fpc_trace.Sink.t -> slot -> Fpc_core.State.t
(** Reset the slot's state ({!Fpc_core.State.reset}) — stacks, registers,
    meters, link tables — and hand it back ready for
    [Fpc_core.Transfer.start].  Must be called after {!acquire} restored
    the image (the reset reinstalls I1's link tables into the store). *)

type stats = {
  hits : int;  (** acquisitions served by resetting an existing slot *)
  misses : int;  (** acquisitions that cloned an image or created a state *)
  evictions : int;  (** images dropped, each with its states *)
  images : int;  (** currently cached image clones *)
  states : int;  (** currently cached machine states, over all images *)
  store_bytes : int;  (** bytes of simulated store the cached clones hold *)
  pages_blitted : int;
      (** dirty 256-word pages restored across all resets — the work the
          reset actually did, versus a full store copy per job *)
}

val stats : t -> stats
