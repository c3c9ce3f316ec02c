type proc_agg = {
  mutable a_calls : int;
  mutable a_excl_cycles : int;
  mutable a_excl_refs : int;
}

type t = {
  domains : int;
  mutable jobs : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable fuel_exhausted : int;
  mutable deadline_exceeded : int;
  mutable timer_deadlines : int;
  mutable shed : int;
  mutable max_pending_observed : int;
  mutable compile_s : float;
  mutable run_s : float;
  mutable translate_s : float;
  mutable translation_hits : int;
  mutable translation_misses : int;
  mutable lazy_translated : int;
  mutable fused_calls : int;
  mutable devirt_jobs : int;
  mutable devirt_sites : int;
  mutable devirt_proven : int;
  mutable devirt_rewritten : int;
  mutable devirt_short : int;
  mutable minor_words : int;
  mutable instructions : int;
  mutable cycles : int;
  mutable mem_refs : int;
  mutable traced_jobs : int;
  mutable trace_events : int;
  mutable arena : Arena.stats;
      (** the owning worker's arena counters, as of its last completion *)
  proc_costs : (string, proc_agg) Hashtbl.t;
      (** per-procedure exclusive cost, summed over traced jobs *)
}

let no_arena =
  {
    Arena.hits = 0;
    misses = 0;
    evictions = 0;
    images = 0;
    states = 0;
    store_bytes = 0;
    pages_blitted = 0;
  }

let add_arena (a : Arena.stats) (b : Arena.stats) =
  {
    Arena.hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    images = a.images + b.images;
    states = a.states + b.states;
    store_bytes = a.store_bytes + b.store_bytes;
    pages_blitted = a.pages_blitted + b.pages_blitted;
  }

let create ~domains =
  {
    domains;
    jobs = 0;
    succeeded = 0;
    failed = 0;
    fuel_exhausted = 0;
    deadline_exceeded = 0;
    timer_deadlines = 0;
    shed = 0;
    max_pending_observed = 0;
    compile_s = 0.0;
    run_s = 0.0;
    translate_s = 0.0;
    translation_hits = 0;
    translation_misses = 0;
    lazy_translated = 0;
    fused_calls = 0;
    devirt_jobs = 0;
    devirt_sites = 0;
    devirt_proven = 0;
    devirt_rewritten = 0;
    devirt_short = 0;
    minor_words = 0;
    instructions = 0;
    cycles = 0;
    mem_refs = 0;
    traced_jobs = 0;
    trace_events = 0;
    arena = no_arena;
    proc_costs = Hashtbl.create 64;
  }

let record t (r : Job.result) =
  t.jobs <- t.jobs + 1;
  (match r.outcome with
  | Job.Output _ -> t.succeeded <- t.succeeded + 1
  | Job.Failed (kind, _) ->
    t.failed <- t.failed + 1;
    if kind = Job.Fuel_exhausted then t.fuel_exhausted <- t.fuel_exhausted + 1;
    if kind = Job.Deadline_exceeded then
      t.deadline_exceeded <- t.deadline_exceeded + 1);
  t.compile_s <- t.compile_s +. r.stats.Job.compile_s;
  t.run_s <- t.run_s +. r.stats.Job.run_s;
  (match r.stats.Job.translation with
  | Job.No_translation -> ()
  | Job.Translated { hit; translate_s; lazy_translated; fused_calls; _ } ->
    t.translate_s <- t.translate_s +. translate_s;
    if hit then t.translation_hits <- t.translation_hits + 1
    else t.translation_misses <- t.translation_misses + 1;
    t.lazy_translated <- t.lazy_translated + lazy_translated;
    t.fused_calls <- t.fused_calls + fused_calls);
  (match r.stats.Job.devirt_stats with
  | None -> ()
  | Some d ->
    t.devirt_jobs <- t.devirt_jobs + 1;
    t.devirt_sites <- t.devirt_sites + d.Fpc_mesa.Image.dv_sites;
    t.devirt_proven <- t.devirt_proven + d.dv_proven;
    t.devirt_rewritten <- t.devirt_rewritten + d.dv_rewritten;
    t.devirt_short <- t.devirt_short + d.dv_short);
  t.minor_words <- t.minor_words + r.stats.Job.minor_words;
  t.instructions <- t.instructions + r.stats.Job.instructions;
  t.cycles <- t.cycles + r.stats.Job.cycles;
  t.mem_refs <- t.mem_refs + r.stats.Job.mem_refs;
  match r.profile with
  | None -> ()
  | Some s ->
    t.traced_jobs <- t.traced_jobs + 1;
    t.trace_events <- t.trace_events + s.Fpc_trace.Profile.s_events;
    List.iter
      (fun (p : Fpc_trace.Profile.proc_stat) ->
        let agg =
          match Hashtbl.find_opt t.proc_costs p.ps_name with
          | Some a -> a
          | None ->
            let a = { a_calls = 0; a_excl_cycles = 0; a_excl_refs = 0 } in
            Hashtbl.add t.proc_costs p.ps_name a;
            a
        in
        agg.a_calls <- agg.a_calls + p.ps_calls;
        agg.a_excl_cycles <- agg.a_excl_cycles + p.ps_excl_cycles;
        agg.a_excl_refs <- agg.a_excl_refs + p.ps_excl_refs)
      s.Fpc_trace.Profile.s_procs

(* An arena's counters are cumulative over its life, so the latest
   reading replaces the previous one rather than adding to it. *)
let set_arena t s = t.arena <- s

let note_shed t = t.shed <- t.shed + 1

(* The job itself is still counted by the worker that eventually runs
   it; this only counts the reply the reactor synthesized in its place. *)
let note_timer_deadline t = t.timer_deadlines <- t.timer_deadlines + 1

let observe_pending t pending =
  if pending > t.max_pending_observed then t.max_pending_observed <- pending

let merge_into ~src ~into =
  into.jobs <- into.jobs + src.jobs;
  into.succeeded <- into.succeeded + src.succeeded;
  into.failed <- into.failed + src.failed;
  into.fuel_exhausted <- into.fuel_exhausted + src.fuel_exhausted;
  into.deadline_exceeded <- into.deadline_exceeded + src.deadline_exceeded;
  into.timer_deadlines <- into.timer_deadlines + src.timer_deadlines;
  into.shed <- into.shed + src.shed;
  into.max_pending_observed <-
    max into.max_pending_observed src.max_pending_observed;
  into.compile_s <- into.compile_s +. src.compile_s;
  into.run_s <- into.run_s +. src.run_s;
  into.translate_s <- into.translate_s +. src.translate_s;
  into.translation_hits <- into.translation_hits + src.translation_hits;
  into.translation_misses <- into.translation_misses + src.translation_misses;
  into.lazy_translated <- into.lazy_translated + src.lazy_translated;
  into.fused_calls <- into.fused_calls + src.fused_calls;
  into.devirt_jobs <- into.devirt_jobs + src.devirt_jobs;
  into.devirt_sites <- into.devirt_sites + src.devirt_sites;
  into.devirt_proven <- into.devirt_proven + src.devirt_proven;
  into.devirt_rewritten <- into.devirt_rewritten + src.devirt_rewritten;
  into.devirt_short <- into.devirt_short + src.devirt_short;
  into.minor_words <- into.minor_words + src.minor_words;
  into.instructions <- into.instructions + src.instructions;
  into.cycles <- into.cycles + src.cycles;
  into.mem_refs <- into.mem_refs + src.mem_refs;
  into.traced_jobs <- into.traced_jobs + src.traced_jobs;
  into.trace_events <- into.trace_events + src.trace_events;
  into.arena <- add_arena into.arena src.arena;
  Hashtbl.iter
    (fun name (a : proc_agg) ->
      let agg =
        match Hashtbl.find_opt into.proc_costs name with
        | Some agg -> agg
        | None ->
          let agg = { a_calls = 0; a_excl_cycles = 0; a_excl_refs = 0 } in
          Hashtbl.add into.proc_costs name agg;
          agg
      in
      agg.a_calls <- agg.a_calls + a.a_calls;
      agg.a_excl_cycles <- agg.a_excl_cycles + a.a_excl_cycles;
      agg.a_excl_refs <- agg.a_excl_refs + a.a_excl_refs)
    src.proc_costs

type proc_cost = {
  pc_name : string;
  pc_calls : int;
  pc_excl_cycles : int;
  pc_excl_refs : int;
}

type snapshot = {
  domains : int;
  jobs : int;
  succeeded : int;
  failed : int;
  fuel_exhausted : int;
  deadline_exceeded : int;
  timer_deadlines : int;
  shed : int;
  max_pending_observed : int;
  cache : Image_cache.stats;
  arena : Arena.stats;
  compile_s : float;
  run_s : float;
  translate_s : float;
  translation_hits : int;
  translation_misses : int;
  lazy_translated : int;
  fused_calls : int;
  devirt_jobs : int;
  devirt_sites : int;
  devirt_proven : int;
  devirt_rewritten : int;
  devirt_short : int;
  wall_s : float;
  jobs_per_sec : float;
  minor_words : int;
  minor_words_per_job : float;
  instructions : int;
  cycles : int;
  mem_refs : int;
  traced_jobs : int;
  trace_events : int;
  proc_costs : proc_cost list;
}

let snapshot (t : t) ~wall_s ~cache =
  let proc_costs =
    Hashtbl.fold
      (fun name (a : proc_agg) acc ->
        {
          pc_name = name;
          pc_calls = a.a_calls;
          pc_excl_cycles = a.a_excl_cycles;
          pc_excl_refs = a.a_excl_refs;
        }
        :: acc)
      t.proc_costs []
    |> List.sort (fun a b ->
           match compare b.pc_excl_cycles a.pc_excl_cycles with
           | 0 -> compare a.pc_name b.pc_name
           | c -> c)
  in
  {
    domains = t.domains;
    jobs = t.jobs;
    succeeded = t.succeeded;
    failed = t.failed;
    fuel_exhausted = t.fuel_exhausted;
    deadline_exceeded = t.deadline_exceeded;
    timer_deadlines = t.timer_deadlines;
    shed = t.shed;
    max_pending_observed = t.max_pending_observed;
    cache;
    arena = t.arena;
    compile_s = t.compile_s;
    run_s = t.run_s;
    translate_s = t.translate_s;
    translation_hits = t.translation_hits;
    translation_misses = t.translation_misses;
    lazy_translated = t.lazy_translated;
    fused_calls = t.fused_calls;
    devirt_jobs = t.devirt_jobs;
    devirt_sites = t.devirt_sites;
    devirt_proven = t.devirt_proven;
    devirt_rewritten = t.devirt_rewritten;
    devirt_short = t.devirt_short;
    wall_s;
    jobs_per_sec =
      (if wall_s > 0.0 then float_of_int t.jobs /. wall_s else 0.0);
    minor_words = t.minor_words;
    minor_words_per_job =
      (if t.jobs > 0 then float_of_int t.minor_words /. float_of_int t.jobs
       else 0.0);
    instructions = t.instructions;
    cycles = t.cycles;
    mem_refs = t.mem_refs;
    traced_jobs = t.traced_jobs;
    trace_events = t.trace_events;
    proc_costs;
  }

let arena_hit_rate (a : Arena.stats) =
  let n = a.hits + a.misses in
  if n = 0 then 0.0 else float_of_int a.hits /. float_of_int n

let render (s : snapshot) =
  let open Fpc_util.Tablefmt in
  let tb = create ~title:"pool metrics" ~columns:[ ("", Left); ("value", Right) ] in
  let row k v = add_row tb [ k; v ] in
  row "domains" (cell_int s.domains);
  row "jobs" (cell_int s.jobs);
  row "  succeeded" (cell_int s.succeeded);
  row "  failed" (cell_int s.failed);
  row "    of which fuel-exhausted" (cell_int s.fuel_exhausted);
  row "    of which deadline-exceeded" (cell_int s.deadline_exceeded);
  if s.timer_deadlines > 0 then
    row "deadlines answered by timer" (cell_int s.timer_deadlines);
  row "shed (admission control)" (cell_int s.shed);
  row "max pending observed" (cell_int s.max_pending_observed);
  row "cache hits / misses"
    (Printf.sprintf "%d / %d" s.cache.Image_cache.hits s.cache.Image_cache.misses);
  row "cache hit rate" (cell_pct (Image_cache.hit_rate s.cache));
  row "cache entries (evictions)"
    (Printf.sprintf "%d (%d)" s.cache.Image_cache.entries
       s.cache.Image_cache.evictions);
  (* shown only when some worker ran with an arena (arena reuse off
     leaves every counter at zero) *)
  if s.arena.Arena.hits + s.arena.Arena.misses > 0 then begin
    row "arena hits / misses"
      (Printf.sprintf "%d / %d" s.arena.Arena.hits s.arena.Arena.misses);
    row "arena hit rate" (cell_pct (arena_hit_rate s.arena));
    row "arena images / states"
      (Printf.sprintf "%d / %d" s.arena.Arena.images s.arena.Arena.states);
    row "arena evictions" (cell_int s.arena.Arena.evictions);
    row "arena store bytes" (cell_int s.arena.Arena.store_bytes);
    row "arena pages blitted" (cell_int s.arena.Arena.pages_blitted)
  end;
  row "compile time (summed)" (Printf.sprintf "%.3fs" s.compile_s);
  if s.translation_hits + s.translation_misses > 0 then begin
    row "translation hits / misses"
      (Printf.sprintf "%d / %d" s.translation_hits s.translation_misses);
    row "translate time (summed)" (Printf.sprintf "%.3fs" s.translate_s);
    row "procedures lazily translated" (cell_int s.lazy_translated);
    row "fused calls retired" (cell_int s.fused_calls)
  end;
  (* shown only when some job's image actually had late-bound sites, so
     single-module workloads keep their historical table shape *)
  if s.devirt_sites > 0 then begin
    row "devirt sites (summed per job)" (cell_int s.devirt_sites);
    row "  proven single-target" (cell_int s.devirt_proven);
    row "  rewritten to DIRECTCALL" (cell_int s.devirt_rewritten);
    row "    of which short form" (cell_int s.devirt_short)
  end;
  row "run time (summed)" (Printf.sprintf "%.3fs" s.run_s);
  row "wall time" (Printf.sprintf "%.3fs" s.wall_s);
  row "throughput" (Printf.sprintf "%s jobs/s" (cell_float ~decimals:1 s.jobs_per_sec));
  row "minor words (total)" (cell_int s.minor_words);
  row "minor words / job"
    (cell_float ~decimals:1 s.minor_words_per_job);
  row "simulated instructions" (cell_int s.instructions);
  row "simulated cycles" (cell_int s.cycles);
  row "simulated storage refs" (cell_int s.mem_refs);
  if s.traced_jobs > 0 then begin
    row "traced jobs" (cell_int s.traced_jobs);
    row "trace events" (cell_int s.trace_events);
    let top = List.filteri (fun i _ -> i < 8) s.proc_costs in
    List.iter
      (fun p ->
        row ("  " ^ p.pc_name)
          (Printf.sprintf "%d calls, %d cycles, %d refs" p.pc_calls
             p.pc_excl_cycles p.pc_excl_refs))
      top;
    let rest = List.length s.proc_costs - List.length top in
    if rest > 0 then row "  ..." (Printf.sprintf "%d more procedures" rest)
  end;
  render tb

let to_json (s : snapshot) =
  let open Fpc_util.Jsonout in
  Obj
    [
      ("domains", Int s.domains);
      ("jobs", Int s.jobs);
      ("succeeded", Int s.succeeded);
      ("failed", Int s.failed);
      ("fuel_exhausted", Int s.fuel_exhausted);
      ("deadline_exceeded", Int s.deadline_exceeded);
      ("timer_deadlines", Int s.timer_deadlines);
      ("shed", Int s.shed);
      ("max_pending_observed", Int s.max_pending_observed);
      ( "cache",
        Obj
          [
            ("hits", Int s.cache.Image_cache.hits);
            ("misses", Int s.cache.Image_cache.misses);
            ("evictions", Int s.cache.Image_cache.evictions);
            ("entries", Int s.cache.Image_cache.entries);
            ("hit_rate", Float (Image_cache.hit_rate s.cache));
          ] );
      ( "arena",
        Obj
          [
            ("hits", Int s.arena.Arena.hits);
            ("misses", Int s.arena.Arena.misses);
            ("evictions", Int s.arena.Arena.evictions);
            ("images", Int s.arena.Arena.images);
            ("states", Int s.arena.Arena.states);
            ("store_bytes", Int s.arena.Arena.store_bytes);
            ("pages_blitted", Int s.arena.Arena.pages_blitted);
            ("hit_rate", Float (arena_hit_rate s.arena));
          ] );
      ("compile_s", Float s.compile_s);
      ( "translation",
        Obj
          [
            ("hits", Int s.translation_hits);
            ("misses", Int s.translation_misses);
            ("translate_s", Float s.translate_s);
            ("lazy_translated", Int s.lazy_translated);
            ("fused_calls", Int s.fused_calls);
          ] );
      ( "devirt",
        Obj
          [
            ("jobs", Int s.devirt_jobs);
            ("sites", Int s.devirt_sites);
            ("proven", Int s.devirt_proven);
            ("rewritten", Int s.devirt_rewritten);
            ("short", Int s.devirt_short);
          ] );
      ("run_s", Float s.run_s);
      ("wall_s", Float s.wall_s);
      ("jobs_per_sec", Float s.jobs_per_sec);
      ("minor_words", Int s.minor_words);
      ("minor_words_per_job", Float s.minor_words_per_job);
      ("instructions", Int s.instructions);
      ("cycles", Int s.cycles);
      ("mem_refs", Int s.mem_refs);
      ("traced_jobs", Int s.traced_jobs);
      ("trace_events", Int s.trace_events);
      ( "proc_costs",
        List
          (List.map
             (fun p ->
               Obj
                 [
                   ("name", String p.pc_name);
                   ("calls", Int p.pc_calls);
                   ("excl_cycles", Int p.pc_excl_cycles);
                   ("excl_refs", Int p.pc_excl_refs);
                 ])
             s.proc_costs) );
    ]
