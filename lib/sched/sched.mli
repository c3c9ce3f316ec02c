(** A cooperative green-thread session scheduler over coroutine XFER.

    The paper's machine already {e is} a scheduler: FORK queues a process,
    YIELD round-robins, XFER switches coroutines, and a returning root
    frame retires its process — all in simulated instructions, metered like
    any other transfer.  This module adds the one thing the machine lacks,
    a host-side notion of {e time}: it runs the machine in fuel slices
    (at the resumable [Step_limit] boundary where both run loops stop)
    and, under the preemptive policy, forces a switch point
    between slices by injecting the exact YIELD the program could have
    written itself.

    Because both execution tiers deopt every process operation to
    {!Fpc_core.Transfer}, a scheduled run is bit-identical across tiers for
    any policy.  Under {!Run_to_yield} the switch points are program-defined,
    so outputs are additionally byte-identical across all engines — the
    identity E17 gates on.  Under {!Preempt} the switch points fall at
    instruction counts, which differ per engine (each engine's convention
    compiles different code), so cross-engine identity is only guaranteed
    for interleaving-insensitive programs. *)

type policy =
  | Run_to_yield
      (** sessions switch only at their own YIELD/XFER/exit points; the
          fuel slice (50k steps) exists purely for deadline checks *)
  | Preempt of { quantum : int }
      (** inject a round-robin YIELD roughly every [quantum] executed
          steps — the timer-interrupt discipline, with fuel as the clock.
          The yield lands at the next {e statement boundary} (empty
          evaluation stack), never mid-expression: the machine has no
          monitors, so a switch straddling a read-modify-write of a shared
          global would lose updates no real program could lose.  An
          injected yield is therefore exactly a YIELD the program could
          have written itself. *)

val policy_to_string : policy -> string

val policy_of_string : ?quantum:int -> string -> (policy, string) result
(** ["yield"], ["preempt"] (with the default [quantum], 1000) or
    ["preempt:N"]. *)

type stats = {
  deadline_hit : bool;
  slices : int;  (** step-function invocations *)
  preemptions : int;  (** injected yields that found another session ready *)
}

val run :
  ?policy:policy ->
  ?deadline_at:float ->
  step:(int -> Fpc_core.State.t -> unit) ->
  fuel:int ->
  Fpc_core.State.t ->
  stats
(** Drive [st] (already started) for up to [fuel] steps using [step] — one
    tier's run function, [fun n st -> Interp.run ~max_steps:n st] or the
    compiled equivalent.  Mid-run [Step_limit] traps are slice boundaries
    and are resumed; a terminal [Step_limit] (fuel exhausted) is left on
    the machine, and handing the same machine back with fresh fuel picks
    up where it stopped; a non-positive [fuel] runs no instruction and
    leaves [Step_limit].  With [deadline_at] (absolute seconds on
    {!Fpc_util.Clock}), the clock is checked at every slice boundary.
    The service pool runs every job through it. *)

type report = {
  forked : int;  (** sessions queued by FORK *)
  ended : int;  (** processes retired, boot process included *)
  peak_live : int;  (** high-water mark of running + ready processes *)
  slices : int;
  preemptions : int;
  switch_xfers : int;  (** XF/FORK/YIELD/switch transfers, injected ones included *)
  rs_flushes : int;  (** return-stack flushes (I3/I4); switches force them *)
  rs_flush_rate : float;  (** flushes per switch transfer *)
  bank_overflows : int;  (** bank-file spills (I4) *)
  bank_overflow_rate : float;  (** overflows per call *)
  frame_peak_words : int;
      (** what the shared frame heap actually had to hold at its peak *)
  lifo_reserved_words : int;
      (** what dedicated per-session LIFO stacks would reserve:
          peak-live sessions times the worst per-session extent *)
  footprint_ratio : float;  (** frame_peak / lifo_reserved; lower favours the heap *)
}

val report : ?lifo_reserved:int -> stats:stats -> Fpc_core.State.t -> report
(** Read the scheduling story out of a finished machine.  Deterministic:
    every field comes from simulated meters, never the host clock. *)

val report_lines : report -> string list
(** Stable, human-readable rendering (one line per group) — what
    [fpc sched] prints and the cram test pins. *)
