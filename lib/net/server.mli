(** The TCP front-end over {!Fpc_svc.Pool}: newline-delimited
    {!Fpc_svc.Job} request lines in, one JSON result line per job out.

    Thread/domain layout — the point of the design is that it is {e
    constant in the connection count}: one reactor thread
    ({!Fpc_reactor.Loop}) owns the listening socket, every connection
    socket, all routing state and all timers; the jobs themselves execute
    on the {!Fpc_svc.Pool}'s worker domains.  A connection is a small
    state machine (push-mode {!Framing} in, {!Fpc_reactor.Outbuf} out)
    driven by readiness callbacks, so ten connections and ten thousand
    cost the same number of threads.  Results travel from worker to loop
    through the pool's [deliver] hook: the worker renders the JSON line
    and posts it to the loop's self-pipe; the loop routes it to its
    connection.

    Per connection, job results come back in the order the requests were
    sent — protocol pipelining is first-class — so a single connection's
    output for a jobfile is byte-identical to [fpc batch --json] on the
    same file.  Refusals (bad request, overlong line, shed) and admin
    responses are written as soon as the offending line is read, and may
    therefore interleave ahead of earlier jobs' results; they carry
    [id:null] so clients can tell.

    Admission control ({!Limiter}): over the connection cap, the
    connection is answered with one shed line and closed; over the
    pending-jobs bound, the request is answered with a shed line and not
    executed.  The {!Limiter} counts every shed, those made while
    draining included, and {!stats} reports its counts.  Nothing queues
    without bound: a connection whose client stops reading accumulates
    at most ~1MB of responses before the reactor stops reading its
    requests.

    Deadlines ([deadline_ms=] on a request) are armed on the loop's
    timer wheel {e at admission}, so they cover queue wait as well as
    execution: if the wheel fires first, the client receives the
    deadline-exceeded reply in that job's ordered slot and the pool's
    eventual result is dropped.  The pool's own fuel-sliced deadline
    enforcement still runs (it is what keeps a hot job from wedging a
    worker); whichever side answers first wins the route.

    Graceful drain ({!request_drain}, a [shutdown] admin line, or — wired
    in [bin/fpc] — SIGTERM): stop accepting, mark every live
    connection's input as over (requests read after the drain began are
    shed), flush every in-flight job's result in order, then {!wait}
    returns the final {!stats}. *)

type t

val create :
  ?host:string ->
  ?port:int ->
  ?domains:int ->
  ?max_connections:int ->
  ?max_pending:int ->
  ?max_line:int ->
  ?times:bool ->
  ?tier:Fpc_svc.Job.tier ->
  ?devirt:bool ->
  ?sndbuf:int ->
  unit ->
  t
(** Bind, listen and start serving.  Defaults: host ["127.0.0.1"], port
    [0] (ephemeral — read it back with {!port}), {!Fpc_svc.Pool}'s
    recommended domain count, {!Limiter}'s caps,
    {!Framing.default_max_line}, [times:true] (include host timings in
    result JSON; [false] gives fully deterministic output), [tier:Auto]
    (the default execution tier for requests that carry no explicit
    [tier=] key; an explicit key always wins), [devirt:true] (the default
    link-time-devirtualization choice for requests that carry no explicit
    [devirt=] key), [sndbuf] unset
    (a test hook: SO_SNDBUF for accepted sockets, to force partial
    writes).  Installs a SIGPIPE-ignore handler (a dead peer must read
    as an I/O error, not kill the process). *)

val port : t -> int
(** The bound port (useful with [port:0]). *)

val request_drain : t -> unit
(** Begin a graceful drain; idempotent, non-blocking, callable from any
    thread (one atomic swap and a loop post — from a dedicated
    signal-relay thread, not a raw signal handler). *)

val draining : t -> bool

type stats = {
  port : int;
  draining : bool;
  admission : Limiter.stats;
      (** the server's admission counts: [shed_jobs] counts every job
          refused, over [max_pending] or while draining, once *)
  timer_deadlines : int;
      (** replies the timer wheel synthesized because a job's
          [deadline_ms] elapsed before the pool answered (queue wait
          included).  The job itself still runs and is counted in
          [pool], so this counts replies, not jobs. *)
  pool : Fpc_svc.Metrics.snapshot;  (** every job the pool has run *)
}
(** What [/stats] reports. *)

val stats_to_json : stats -> Fpc_util.Jsonout.t
(** The [/stats] object: a ["server"] object (port, reactor backend,
    draining flag, then {!Limiter.stats} and [timer_deadlines]), a
    ["pool"] object ({!Fpc_svc.Metrics.to_json}), and a ["gc"] object
    with this process's heap words and collection counts, read from
    [Gc.quick_stat] when this is called. *)

val wait : t -> stats
(** Block until a drain is requested and completes: every accepted
    request answered, the reactor stopped, the pool shut down.  Returns
    the final stats, read after the reactor thread has been joined;
    [fpc serve --tcp] prints their {!stats_to_json} as the drain
    protocol's final stats line.  Call once. *)
