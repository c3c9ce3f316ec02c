(* Per-worker shard: everything a worker touches on the completion path.
   The worker is the only writer; poll/await/metrics readers take the
   shard mutex only to swap the batch out or merge the counters, so a
   completing job never contends on pool-wide state and never wakes
   waiters (the drain condition is signaled only on an actual drain). *)
type shard = {
  s_mutex : Mutex.t;
  mutable s_completed_rev : Job.result list;  (** since the last poll/await *)
  s_metrics : Metrics.t;  (** single-writer; merged on [metrics] *)
}

type t = {
  mutex : Mutex.t;  (** guards queue / active / stopping / next_id *)
  work_available : Condition.t;  (** queue non-empty, or stopping *)
  drained : Condition.t;  (** no job queued or executing *)
  queue : (int * Job.spec) Queue.t;
  mutable next_id : int;
  mutable active : int;  (** jobs currently executing *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  n_domains : int;
  shards : shard array;  (** one per worker *)
  cache : Image_cache.t;
  deliver : (Job.result -> unit) option;
      (** when set, completed results are handed here (on the worker
          domain) instead of accumulating for poll/await *)
  started_at : float;
}

let recommended_domains () = max 1 (Domain.recommended_domain_count ())

(* ---- executing one job (never raises) ---- *)

let now = Fpc_util.Clock.now

let failed ?(stats = Job.no_stats) id spec kind msg =
  {
    Job.id;
    spec;
    outcome = Job.Failed (kind, msg);
    stats;
    profile = None;
    sched = None;
  }

let interp_step fuel st = Fpc_interp.Interp.run ~max_steps:fuel st

let execute ?arena cache id (spec : Job.spec) =
  match (Job.engine_of_name spec.engine, Job.source_text spec.source) with
  | Error m, _ | _, Error m -> failed id spec Job.Bad_request m
  | Ok engine, Ok source -> (
    let convention = Fpc_compiler.Convention.for_engine engine in
    (* Auto resolves to the compiled tier except under a tracer, where
       [Tier.run] hands the whole run to the interpreter anyway; an
       explicit tier=compiled trace=1 attaches a translation and takes
       that path (the event stream is the interpreter's). *)
    let compiled_tier =
      match spec.tier with
      | Job.Interp -> false
      | Job.Compiled -> true
      | Job.Auto -> not spec.trace
    in
    let tier_name = if compiled_tier then "compiled" else "interp" in
    (* The service default is devirt on: the pass only rewrites provably
       single-target sites, so outputs are unchanged and meters improve.
       An explicit devirt=0 gets the late-bound baseline. *)
    let devirt = Option.value spec.devirt ~default:true in
    match
      Image_cache.find_pristine cache ~tier:tier_name ~devirt ~convention
        ~source
    with
    | Error m -> failed id spec Job.Compile_error m
    | exception e -> failed id spec Job.Internal (Printexc.to_string e)
    | Ok (pristine, key, cache_hit, compile_s) -> (
      let t0 = now () in
      let mw0 = Gc.minor_words () in
      let deadline_at =
        Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.0)) spec.deadline_ms
      in
      (* Every job is driven by the scheduler's slicer: with no policy
         and no deadline that is one [step] over the whole fuel; a
         deadline or preemption slices the run, and the clock is checked
         between slices.  Scheduled jobs (an explicit policy, or any Sessions
         workload) also get a scheduler report. *)
      let sched_policy = Job.effective_sched spec in
      (* One boot path.  With an arena (the worker's private one), reuse
         its image for this pristine and its state for this engine:
         dirty-page image reset + in-place state reset.  Without one,
         clone the pristine and boot a fresh state (clone-per-job, the
         reference test_svc checks the arena against).  A tracer is built
         against the image before the state is checked out.  Written flat
         — no [go]/[boot] closures — because every capture here is a
         per-job minor allocation the arena exists to eliminate. *)
      match
        let slot =
          match arena with
          | Some a ->
            Some
              (Arena.acquire a ~key ~engine ~engine_name:spec.engine ~tier_name
                 ~pristine ())
          | None -> None
        in
        let image =
          match slot with
          | Some s -> Arena.image s
          | None -> Fpc_mesa.Image.clone pristine
        in
        let profiler =
          if spec.trace then Some (Fpc_interp.Profiler.create ~image ~engine ())
          else None
        in
        let tracer =
          Option.map (fun (p : Fpc_interp.Profiler.t) -> p.sink) profiler
        in
        let st =
          match slot with
          | Some s ->
            let st = Arena.checkout ?tracer s in
            Fpc_core.Transfer.start st ~instance:"Main" ~proc:"main" ~args:[];
            st
          | None ->
            Fpc_interp.Interp.boot ?tracer ~image ~engine ~instance:"Main"
              ~proc:"main" ~args:[] ()
        in
        (* The compiled tier reuses the translation attached to the
           image's shared directory or builds and attaches it (a
           translation-cache miss, once per pristine); the lookup is
           timed. *)
        let tier =
          if compiled_tier then begin
            let tt0 = now () in
            let tr, hit = Fpc_tier.Tier.of_image image in
            Some (tr, hit, now () -. tt0)
          end
          else None
        in
        let step =
          match tier with
          | Some (tr, _, _) -> fun fuel st -> Fpc_tier.Tier.run ~max_steps:fuel tr st
          | None -> interp_step
        in
        let sstats =
          Fpc_sched.Sched.run ?policy:sched_policy ?deadline_at ~step
            ~fuel:spec.fuel st
        in
        let profile =
          match profiler with
          | None -> None
          | Some p ->
            let o = Fpc_interp.Interp.outcome st in
            ignore
              (Fpc_trace.Profile.finish p.Fpc_interp.Profiler.profile
                 ~cycles:o.Fpc_interp.Interp.o_cycles
                 ~mem_refs:o.Fpc_interp.Interp.o_mem_refs);
            Some (Fpc_trace.Profile.summary p.Fpc_interp.Profiler.profile)
        in
        (st, profile, sstats, tier)
      with
      | exception Not_found ->
        failed id spec Job.Compile_error "program has no Main.main()"
      | exception e -> failed id spec Job.Internal (Printexc.to_string e)
      | st, profile, sstats, tier ->
        let o = Fpc_interp.Interp.outcome st in
        let minor_words = int_of_float (Gc.minor_words () -. mw0) in
        (* Counts that accrue during the run (lazy translations, fused
           calls) are read off the state now that it is over. *)
        let translation =
          match tier with
          | None -> Job.No_translation
          | Some (tr, hit, translate_s) ->
            let m = st.Fpc_core.State.metrics in
            Job.Translated
              {
                hit;
                translate_s;
                lazy_translated = m.Fpc_core.State.tier_lazy_translations;
                fused_calls = m.Fpc_core.State.tier_fused_calls;
                procs = Fpc_tier.Tier.procs tr;
                procs_translated = Fpc_tier.Tier.procs_translated tr;
                invalidations = 0;
              }
        in
        let stats =
          {
            Job.cache_hit;
            compile_s;
            run_s = now () -. t0;
            minor_words;
            translation;
            instructions = o.o_instructions;
            cycles = o.o_cycles;
            mem_refs = o.o_mem_refs;
            fastpath = o.o_fastpath;
            devirt_stats = pristine.Fpc_mesa.Image.dir.Fpc_mesa.Image.devirt;
          }
        in
        let outcome =
          if sstats.Fpc_sched.Sched.deadline_hit then
            Job.Failed
              ( Job.Deadline_exceeded,
                Printf.sprintf "deadline of %d ms exceeded"
                  (Option.value spec.deadline_ms ~default:0) )
          else
            match o.o_status with
            | Fpc_core.State.Halted -> Job.Output o.o_output
            | Fpc_core.State.Running ->
              Job.Failed (Job.Internal, "interpreter stopped while still running")
            | Fpc_core.State.Trapped Fpc_core.State.Step_limit ->
              Job.Failed
                ( Job.Fuel_exhausted,
                  Printf.sprintf "step budget of %d exhausted" spec.fuel )
            | Fpc_core.State.Trapped r ->
              Job.Failed
                (Job.Trapped (Fpc_core.State.trap_reason_to_string r), "machine trap")
        in
        let sched =
          match sched_policy with
          | None -> None
          | Some _ ->
            (* The LIFO-reservation baseline only exists for session
               workloads, whose generator knows its own worst case. *)
            let lifo_reserved =
              match spec.source with
              | Job.Sessions c ->
                st.Fpc_core.State.metrics.peak_live_procs
                * Fpc_workload.Sessions.worst_extent_words c
                    ~image:st.Fpc_core.State.image
              | Job.Suite _ | Job.Inline _ -> 0
            in
            Some (Fpc_sched.Sched.report ~lifo_reserved ~stats:sstats st)
        in
        { Job.id; spec; outcome; stats; profile; sched }))

(* ---- the worker loop ---- *)

(* Bounded by the cache it serves: a working set the cache holds without
   evicting, the arena holds without cloning. *)
let worker_arena cache = Arena.create ~capacity:(Image_cache.capacity cache) ()

let rec worker_loop t shard arena =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.work_available t.mutex
  done;
  if Queue.is_empty t.queue then (* stopping, queue drained *)
    Mutex.unlock t.mutex
  else begin
    let id, spec = Queue.pop t.queue in
    t.active <- t.active + 1;
    Mutex.unlock t.mutex;
    let result = execute ?arena t.cache id spec in
    (* Publish before the job stops counting as active, so a woken
       awaiter (or a drain) is guaranteed to observe the result.  With a
       [deliver] consumer the record itself is handed over directly —
       no shard list, no sort, no second copy — and only the metrics
       fold touches the shard. *)
    Mutex.lock shard.s_mutex;
    (match t.deliver with
    | None -> shard.s_completed_rev <- result :: shard.s_completed_rev
    | Some _ -> ());
    Metrics.record shard.s_metrics result;
    (match arena with
    | Some a -> Metrics.set_arena shard.s_metrics (Arena.stats a)
    | None -> ());
    Mutex.unlock shard.s_mutex;
    (match t.deliver with
    | None -> ()
    | Some f -> ( try f result with _ -> ()));
    Mutex.lock t.mutex;
    t.active <- t.active - 1;
    if t.active = 0 && Queue.is_empty t.queue then Condition.broadcast t.drained;
    Mutex.unlock t.mutex;
    worker_loop t shard arena
  end

let create ?domains ?cache ?deliver ?(arena_reuse = true) () =
  let domains = Option.value domains ~default:(recommended_domains ()) in
  if domains < 1 then invalid_arg "Pool.create: need at least one domain";
  let cache = match cache with Some c -> c | None -> Image_cache.create () in
  let t =
    {
      mutex = Mutex.create ();
      work_available = Condition.create ();
      drained = Condition.create ();
      queue = Queue.create ();
      next_id = 0;
      active = 0;
      stopping = false;
      workers = [];
      n_domains = domains;
      shards =
        Array.init domains (fun _ ->
            {
              s_mutex = Mutex.create ();
              s_completed_rev = [];
              s_metrics = Metrics.create ~domains;
            });
      cache;
      deliver;
      started_at = now ();
    }
  in
  t.workers <-
    Array.to_list
      (Array.map
         (fun shard ->
           Domain.spawn (fun () ->
               (* The arena lives on the worker's own domain: created
                  here, seen by nobody else, no lock ever taken. *)
               let arena =
                 if arena_reuse then Some (worker_arena cache) else None
               in
               worker_loop t shard arena))
         t.shards);
  t

let submit t spec =
  Mutex.lock t.mutex;
  if t.stopping then (
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down");
  let id = t.next_id in
  t.next_id <- id + 1;
  Queue.push (id, spec) t.queue;
  Condition.signal t.work_available;
  Mutex.unlock t.mutex;
  id

let pending t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue + t.active in
  Mutex.unlock t.mutex;
  n

(* Swap every shard's batch out and present one id-sorted list — the
   deterministic order poll/await guarantee. *)
let take_completed t =
  let rs =
    Array.fold_left
      (fun acc shard ->
        Mutex.lock shard.s_mutex;
        let batch = shard.s_completed_rev in
        shard.s_completed_rev <- [];
        Mutex.unlock shard.s_mutex;
        List.rev_append batch acc)
      [] t.shards
  in
  List.sort (fun (a : Job.result) b -> compare a.id b.id) rs

let poll t = take_completed t

let drain t =
  Mutex.lock t.mutex;
  while not (Queue.is_empty t.queue && t.active = 0) do
    Condition.wait t.drained t.mutex
  done;
  Mutex.unlock t.mutex

let await t =
  drain t;
  take_completed t

let metrics t =
  let merged = Metrics.create ~domains:t.n_domains in
  Array.iter
    (fun shard ->
      Mutex.lock shard.s_mutex;
      Metrics.merge_into ~src:shard.s_metrics ~into:merged;
      Mutex.unlock shard.s_mutex)
    t.shards;
  let wall_s = now () -. t.started_at in
  Metrics.snapshot merged ~wall_s ~cache:(Image_cache.stats t.cache)

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work_available;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let run_jobs ?domains ?cache ?arena_reuse specs =
  let t = create ?domains ?cache ?arena_reuse () in
  List.iter (fun spec -> ignore (submit t spec)) specs;
  let results = await t in
  let snapshot = metrics t in
  shutdown t;
  (results, snapshot)
