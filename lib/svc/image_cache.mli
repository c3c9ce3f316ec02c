(** A content-addressed cache of linked program images.

    Keyed by the MD5 digest of the source text plus the calling
    convention (linkage × args-in-place) — the two inputs that determine
    the compiled image.  A hit skips the whole pipeline: lexer, parser,
    typechecker, lowering, codegen and linker.

    The cache stores {e pristine} images and never runs one: executing a
    program mutates its image (frames, globals, I1's link tables), so
    every lookup — hit or miss — hands back a private
    {!Fpc_mesa.Image.clone} that the caller may run and discard.

    All operations are thread-safe (one internal mutex); entries are
    LRU-evicted beyond [capacity].  Failed compilations are not cached —
    resubmitting a broken source pays the front-end again, which keeps
    error messages fresh and the cache free of dead entries. *)

type t

val default_capacity : int
(** 64. *)

val create : ?capacity:int -> unit -> t
(** [capacity] (default {!default_capacity}) is the maximum number of
    cached images; each holds a full simulated store (64 K words by
    default). *)

val capacity : t -> int

type stats = {
  hits : int;
  misses : int;  (** lookups that had to compile (including failures) *)
  evictions : int;
  entries : int;  (** currently cached *)
}

val stats : t -> stats

val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0.0 when the cache is untouched. *)

val find_or_compile :
  ?devirt:bool ->
  t ->
  convention:Fpc_compiler.Convention.t ->
  source:string ->
  (Fpc_mesa.Image.t * bool * float, string) result
(** [(image, hit, compile_s)]: a private runnable clone, whether it was
    served from the cache, and the host seconds spent compiling (0.0 on a
    hit).  On a miss the compiled pristine image is inserted; two domains
    racing on the same key may both compile, and the loser's image is
    dropped — wasted work, never wrong results. *)

val find_pristine :
  ?tier:string ->
  ?devirt:bool ->
  t ->
  convention:Fpc_compiler.Convention.t ->
  source:string ->
  (Fpc_mesa.Image.t * string * bool * float, string) result
(** [(pristine, key, hit, compile_s)]: the cached pristine image itself
    (no clone) plus its cache key.  The caller must {e never run} the
    pristine — it is shared across domains; it is the blit source for
    {!Fpc_mesa.Image.clone} or the arena's [clone_into] reset.  The key
    is content-derived, so an arena slot keyed by it stays valid even if
    the entry is evicted and later recompiled: the recompiled pristine is
    word-identical.

    [tier] (default [""], untagged) is folded into the key, giving each
    execution tier its own pristine entry: the compiled tier attaches its
    translation to the image's shared directory, and the tag keeps that
    off the interpreter tier's entry (and off every arena slot keyed by
    it).

    [devirt] (default [false]) is likewise folded into the key and passed
    to {!Fpc_compiler.Compile.image}: the devirtualized variant has
    different code bytes (call sites rewritten to DIRECTCALL), so it gets
    its own pristine entry and its own arena slots — an arena reset
    replays operand patches against the slot's recorded pristine, which
    must be the same variant. *)
