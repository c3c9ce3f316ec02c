(** The AV frame-heap allocator of §5.3 (Figure 2).

    The allocation vector AV is an array of free-list heads indexed by
    frame-size index (fsi), living in simulated memory so reference counts
    are measured, not asserted.  The fast path is exactly the paper's:

    - allocate: fetch list head from AV, fetch next pointer from the first
      node, store it into the list head — {e three} storage references;
    - free: fetch the frame's fsi word, fetch the list head, store it into
      the node, store the node into the list head — {e four} references.

    When a free list is empty the allocator traps to a software allocator
    which carves fresh blocks of that class out of the wilderness; its cost
    is charged as a single [software_alloc] constant (its own loads and
    stores are folded into that constant, as they belong to the trap
    handler, not the architectural fast path).

    The same allocator serves long argument records (§4) and, in
    [Software_only] mode, models the general-purpose heap of the simple
    implementation I1 (§4), where every allocation pays the software cost.

    Free-list links are kept in the node's pc slot (block word 1); block
    word 0 always holds the fsi, "so that the size need not be specified
    when it is freed". *)

type mode = Fast | Software_only

type t

exception Out_of_frame_heap

val create :
  ?mode:mode ->
  mem:Fpc_machine.Memory.t ->
  ladder:Size_class.t ->
  av_base:int ->
  heap_base:int ->
  heap_limit:int ->
  unit ->
  t
(** [av_base] must leave [Size_class.class_count ladder] words free;
    [heap_base] must be quad-aligned.  The software allocator carves up
    to 8 blocks of a class per trap (fewer for big classes). *)

val ladder : t -> Size_class.t

val set_on_event : t -> (Fpc_trace.Event.kind -> unit) option -> unit
(** Tracing hook: each allocation fires [Frame_alloc] (with [software]
    marking the I1 path or a replenish trap) and each free fires
    [Frame_free].  No-op when unset. *)

val alloc_fsi : t -> cost:Fpc_machine.Cost.t -> fsi:int -> int
(** Allocate a block of class [fsi]; returns the frame pointer LF
    (block + 4, quad-aligned).  Raises [Out_of_frame_heap] when the
    wilderness is exhausted.  The fast path's references are charged to
    [cost] as one batch, before its tracing hook fires. *)

val alloc_words : t -> cost:Fpc_machine.Cost.t -> body_words:int -> int
(** Allocate the smallest class able to hold [body_words] words of payload
    (arguments/locals/fields) plus the four overhead words.  Raises
    [Invalid_argument] if no class is large enough. *)

val free : t -> cost:Fpc_machine.Cost.t -> lf:int -> unit
(** Return the block at LF to its free list, charging the fast path's
    four references as one batch.  Raises [Invalid_argument] if [lf] is
    not currently allocated (double free, wild pointer). *)

val fsi_for_locals : Size_class.t -> int -> int
(** The fsi the compiler should store for a procedure with [n] words of
    arguments + locals under [ladder].  Raises [Invalid_argument] if too
    large. *)

val reset : t -> unit
(** Return the allocator to its just-created state over the same memory:
    AV heads zeroed, no live blocks, wilderness back at [heap_base], all
    counters zero.  Used by the execution arena to recycle an allocator
    across jobs after the backing store has been reset to pristine. *)

(** {1 Accounting} *)

type stats = {
  fast_allocs : int;
  frees : int;
  software_traps : int;  (** free-list refills *)
  live_blocks : int;
  live_words : int;  (** block words currently allocated *)
  peak_live_words : int;
      (** high-water mark of [live_words] over the run — what the frame
          heap actually had to hold.  Frames parked on the processor
          free-frame stack still count as live (they were never freed to
          the AV), a bounded over-count of at most the stack's depth times
          its block size. *)
  requested_words : int;  (** exact need of the live blocks *)
  free_pool_words : int;  (** words parked on free lists *)
  wilderness_used : int;  (** heap words ever carved *)
}

val stats : t -> stats

val internal_fragmentation : t -> float
(** [1 - requested/live] over live blocks; 0 when nothing is live. *)

val check_invariants : t -> (unit, string) result
(** Walk every free list (unmetered) and verify: heads and links stay in
    the heap, each node's fsi matches its list, lists are acyclic, and no
    free node is also live.  For property tests. *)
