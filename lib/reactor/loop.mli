(** A single-threaded event loop: readiness callbacks over a
    {!Backend}, a {!Wheel} of timers, and a self-pipe for thread-safe
    work injection ({!post}) — the one legal way other threads (pool
    worker domains, a signal-relay thread) reach loop-owned state.

    Everything except {!post}, {!request_stop} and {!stats} must be
    called from the loop's own thread (inside a callback, or before
    {!run} starts).  That single-writer discipline is the point: the
    serving state machine needs no locks at all. *)

type t

type watcher

val create : unit -> t

val watch :
  t ->
  Unix.file_descr ->
  ?on_readable:(unit -> unit) ->
  ?on_writable:(unit -> unit) ->
  unit ->
  watcher
(** Register [fd] with no interest yet; set callbacks here and interest
    with {!interest}.  The fd should already be non-blocking. *)

val interest : t -> watcher -> read:bool -> write:bool -> unit

val unwatch : t -> watcher -> unit
(** Forget the fd (idempotent).  Safe mid-dispatch: pending readiness
    for this fd in the current batch is dropped. *)

val after : t -> ms:int -> (unit -> unit) -> Wheel.timer
(** Arm a timer [ms] milliseconds from now; cancel with {!cancel}. *)

val cancel : t -> Wheel.timer -> unit

val post : t -> (unit -> unit) -> unit
(** Enqueue [f] to run on the loop thread and wake the loop.  Callable
    from any thread.  After {!run} returns, posts are dropped. *)

val run : t -> unit
(** Dispatch until {!stop}: wait for readiness (timeout = next timer),
    run ready callbacks, run posted thunks, fire due timers.  Closes the
    self-pipe on exit. *)

val stop : t -> unit
(** Make {!run} return after the current iteration (loop thread). *)

val request_stop : t -> unit
(** Thread-safe {!stop} (a {!post}). *)

type stats = {
  iterations : int;
  posts : int;
  timers_fired : int;
  timers_live : int;
  watched : int;
}

val stats : t -> stats
