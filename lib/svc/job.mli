(** A unit of work for the execution service: what to run, on which
    engine, with how much fuel — and the structured result that comes
    back.

    A job's {e simulated} effects (OUTPUT words, instruction / cycle /
    storage-reference counts) are deterministic: they depend only on the
    spec, never on which domain ran the job, whether the image came from
    the {!Image_cache}, or how many workers the pool had.  Host-side
    timings ([compile_s], [run_s]) and [cache_hit] are observations about
    {e this} execution and are excluded from {!result_line} so that batch
    output is byte-identical at any domain count. *)

type source =
  | Suite of string  (** a built-in workload program, by name *)
  | Inline of string  (** mini-Mesa source text *)
  | Sessions of Fpc_workload.Sessions.config
      (** a generated session workload ({!Fpc_workload.Sessions.program});
          deterministic in the config, so its image caches like a suite
          program *)

(** Which execution strategy runs the job.  [Interp] is the dispatch-loop
    interpreter; [Compiled] is the threaded-code tier ({!Fpc_tier.Tier}),
    bit-identical on every simulated meter; [Auto] (the default) lets the
    pool choose — compiled, except for traced jobs, whose run is
    {!Fpc_interp.Interp.run} on either tier, so they skip attaching a
    translation. *)
type tier = Interp | Compiled | Auto

type spec = {
  source : source;
  engine : string;  (** "i1".."i4" (case-insensitive) *)
  tier : tier;
  fuel : int;  (** interpreter step budget; exhausting it fails the job *)
  trace : bool;  (** run under the XFER tracer, returning a profile summary *)
  deadline_ms : int option;
      (** wall-clock budget, measured from the start of execution.  The
          pool runs deadlined jobs in fuel slices and checks the clock
          between slices, so a hung or hot job degrades to
          [Failed Deadline_exceeded] instead of wedging a worker.  A job
          that completes within its current slice is returned even if it
          finished marginally late (slice granularity, not a host timer). *)
  sched : Fpc_sched.Sched.policy option;
      (** run under the green-thread scheduler ({!Fpc_sched.Sched.run})
          with this switching policy; any job may ask for it, and a
          [Sessions] job defaults to run-to-yield even without it *)
  devirt : bool option;
      (** run on a link-time-devirtualized image
          ({!Fpc_cfa.Cfa.devirtualize}): [None] leaves the choice to the
          service, whose default is {e on} — the pass only rewrites
          provably single-target sites, so outputs never change, only
          meters improve.  [Some false] forces the late-bound baseline
          (what the relink experiments need). *)
}

val default_fuel : int
(** 20 million steps, matching [fpc run]'s default. *)

val spec :
  ?engine:string ->
  ?tier:tier ->
  ?fuel:int ->
  ?trace:bool ->
  ?deadline_ms:int ->
  ?sched:Fpc_sched.Sched.policy ->
  ?devirt:bool ->
  source ->
  spec
(** Defaults: engine ["i2"], tier [Auto], fuel {!default_fuel}, trace
    [false], no deadline, no explicit scheduling policy, devirt left to
    the service (which defaults it on). *)

val effective_sched : spec -> Fpc_sched.Sched.policy option
(** The policy the pool will actually schedule under: the spec's own, or
    run-to-yield for a [Sessions] source, or none. *)

val tier_of_name : string -> (tier, string) Stdlib.result
(** ["interp"], ["compiled"] or ["auto"] (case-insensitive). *)

type error_kind =
  | Bad_request  (** unparseable request, unknown engine or suite program *)
  | Compile_error  (** lexer / parser / typechecker / linker rejection *)
  | Trapped of string  (** the machine trapped (div-zero, heap exhausted, ...) *)
  | Fuel_exhausted  (** the step budget ran out (runaway loop) *)
  | Deadline_exceeded  (** the wall-clock deadline fired mid-run *)
  | Internal  (** unexpected exception; a bug, but isolated to the job *)

type outcome =
  | Output of int list  (** halted normally; the OUTPUT words in order *)
  | Failed of error_kind * string

(** Whether the job ran on the compiled tier, and what the translation
    cost this execution: [hit] means the image's shared translation was
    already attached (translate-once, like predecode), so [translate_s]
    is just the lookup.  A host observation like [run_s] — the simulated
    meters are identical across tiers by construction.  The counts
    describe lazy translation and cross-call fusion: [lazy_translated]
    and [fused_calls] accrued during {e this} run; [procs] and
    [procs_translated] describe the shared translation as of this job's
    completion.  [invalidations] is always 0 (the tier bakes no link
    word); it stays for the benchmark's layer probe, which builds this
    record. *)
type translation =
  | No_translation  (** the job ran on the interpreter tier *)
  | Translated of {
      hit : bool;
      translate_s : float;
      lazy_translated : int;
      fused_calls : int;
      procs : int;
      procs_translated : int;
      invalidations : int;
    }

type stats = {
  cache_hit : bool;  (** the image came from the cache (no compile) *)
  compile_s : float;  (** host seconds spent compiling; 0.0 on a hit *)
  run_s : float;  (** host seconds spent executing *)
  minor_words : int;
      (** OCaml minor-heap words allocated executing this job (image
          reset/clone through boot, run and outcome extraction) — the
          arena's figure of merit.  A host observation like [run_s]: it
          depends on whether the worker's arena had a warm slot, so it is
          excluded from deterministic output ([result_line],
          [result_to_json ~times:false]). *)
  translation : translation;
  instructions : int;  (** simulated instructions executed *)
  cycles : int;  (** simulated cycles (the paper's cost model) *)
  mem_refs : int;  (** simulated storage references *)
  fastpath : Fpc_interp.Interp.fastpath;
      (** where the engine's fast paths hit and missed (deterministic) *)
  devirt_stats : Fpc_mesa.Image.devirt_stats option;
      (** what link-time devirtualization did to the image this job ran
          on: present iff the job's image was linked with the pass
          enabled.  Deterministic in the spec, but reported with the
          host-side fields ([result_to_json ~times:true] only) because
          which image variant ran is a service choice like the tier. *)
}

val no_stats : stats
(** All-zero stats, for jobs that failed before reaching the machine. *)

type result = {
  id : int;
  spec : spec;
  outcome : outcome;
  stats : stats;
  profile : Fpc_trace.Profile.summary option;
      (** present iff the spec asked for [trace] and the job reached the
          machine *)
  sched : Fpc_sched.Sched.report option;
      (** present iff the job ran under the scheduler; every field is a
          simulated meter, so it is as deterministic as [stats.fastpath] *)
}

val engine_of_name : string -> (Fpc_core.Engine.t, string) Stdlib.result

val source_text : source -> (string, string) Stdlib.result
(** The mini-Mesa text to compile; [Error] for an unknown suite name or
    an invalid session config.  A session config's text is built once and
    then shared (across domains too): asking again allocates nothing. *)

val outcome_equal : outcome -> outcome -> bool

(** {1 The request line format}

    [fpc serve] and [fpc batch] jobfiles use one line per job:
    whitespace-separated [key=value] fields.  Keys: [prog] (suite program
    name), [src] (inline source, with [\n] [\t] [\s] [\\] escapes for
    newline, tab, space and backslash) or [sessions] (session-workload
    total, with optional [window] and [seed]), plus optional [engine],
    [tier] (interp/compiled/auto), [fuel], [trace] (0/1: run under the
    XFER tracer), [deadline_ms] (wall-clock budget for the execution),
    [sched] (yield / preempt / preempt:N), [quantum] (preemption
    quantum in steps; requires [sched=preempt]) and [devirt] (0/1: force
    the link-time devirtualization pass off/on; omitted, the service
    default — on — applies).  Blank lines and lines starting with [#]
    are skipped by callers. *)

val parse_request : string -> (spec, string) Stdlib.result

val request_of_spec : spec -> string
(** Renders a spec back into a request line ([parse_request] inverse). *)

(** {1 Rendering results} *)

val result_line : result -> string
(** One-line, fully deterministic summary (no host timings, no cache
    bit): id, source label, engine, outcome, simulated counters. *)

val result_to_json : ?times:bool -> result -> Fpc_util.Jsonout.t
(** The full result as JSON.  [times:false] (default [true]) omits the
    host-time and cache-hit fields, leaving only deterministic ones. *)
