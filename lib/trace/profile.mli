(** Folding an event stream into a per-procedure cost profile.

    The profile answers the paper's question — where do the cycles and
    storage references of procedure-call machinery go? — for an arbitrary
    program.  It is streaming: attach {!record} as the sink listener and
    every event is folded as it is emitted, so the result is exact even
    when the sink's ring has wrapped.

    {b Conservation.}  Consecutive events partition the run: each event
    carries the cumulative meters after it plus the deltas its own
    operation was charged, so the stretch since the previous event splits
    into a {e span} (straight-line execution, attributed to the procedure
    on top of the shadow stack) and the {e operation} itself (attributed
    to the transfer's destination).  Nothing is counted twice and nothing
    is lost: after {!finish}, the sum of exclusive cycles over all rows
    equals the machine's cycle meter exactly, likewise storage references,
    and the call / return / other-transfer counts equal the interpreter's
    metrics.  The qcheck suite asserts this for random programs on every
    engine. *)

type row = {
  r_name : string;
  mutable r_calls : int;  (** entries into the procedure (calls + boot) *)
  mutable r_fast : int;  (** entries that completed with no storage reference *)
  mutable r_slow : int;
  mutable r_excl_cycles : int;
  mutable r_incl_cycles : int;  (** cycles with the procedure on the stack *)
  mutable r_excl_refs : int;
  mutable r_incl_refs : int;
}

type totals = {
  mutable t_cycles : int;
  mutable t_mem_refs : int;
  mutable t_calls : int;
  mutable t_returns : int;
  mutable t_other_xfers : int;
  mutable t_traps : int;
  mutable t_fast_transfers : int;  (** over call/return transfers, as the machine classifies *)
  mutable t_slow_transfers : int;
}

type fastpath = {
  mutable fp_rs_pushes : int;
  mutable fp_rs_hits : int;
  mutable fp_rs_flushes : int;
  mutable fp_rs_flushed_entries : int;
  mutable fp_rs_spills : int;
  mutable fp_bank_loads : int;
  mutable fp_bank_load_words : int;
  mutable fp_bank_spills : int;
  mutable fp_bank_spill_words : int;
  mutable fp_frame_allocs : int;
  mutable fp_ff_allocs : int;  (** served by the processor free-frame stack *)
  mutable fp_sw_allocs : int;  (** took the software-allocator path *)
  mutable fp_frame_frees : int;
  mutable fp_ff_frees : int;
}

type t

val create : procs:Procmap.t -> engine:string -> t

val record : t -> Event.t -> unit
(** Fold one event.  Events must arrive in emission order (attach this as
    the sink listener). *)

val finish : t -> cycles:int -> mem_refs:int -> t
(** Attribute the tail of the run (from the last event to the final meter
    readings) and close still-open stack frames.  Idempotent; returns [t]
    for chaining. *)

val totals : t -> totals
val fastpath : t -> fastpath

val rows : t -> row list
(** One row per procedure observed, plus synthetic ["(unknown)"] /
    ["(outside)"] rows when cost fell outside known procedures; sorted by
    exclusive cycles, descending. *)

val render : ?dropped:int -> t -> string
(** The profile as an aligned table with totals, fast-path counters and
    the depth histogram as notes.  [dropped] (from the sink) adds a
    ring-overflow warning note. *)

(** {1 Plain-data summaries} — for embedding in service results. *)

type proc_stat = {
  ps_name : string;
  ps_calls : int;
  ps_fast : int;
  ps_slow : int;
  ps_excl_cycles : int;
  ps_incl_cycles : int;
  ps_excl_refs : int;
  ps_incl_refs : int;
}

type summary = {
  s_engine : string;
  s_cycles : int;
  s_mem_refs : int;
  s_calls : int;
  s_returns : int;
  s_other_xfers : int;
  s_traps : int;
  s_fast_transfers : int;
  s_slow_transfers : int;
  s_events : int;  (** events folded into this profile *)
  s_procs : proc_stat list;  (** sorted by exclusive cycles, descending *)
  s_depth_max : int;
  s_depth_mean : float;
}

val summary : t -> summary
val summary_to_json : summary -> Fpc_util.Jsonout.t
