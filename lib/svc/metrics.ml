type proc_agg = {
  mutable a_calls : int;
  mutable a_excl_cycles : int;
  mutable a_excl_refs : int;
}

type counts = {
  domains : int;
  mutable jobs : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable fuel_exhausted : int;
  mutable deadline_exceeded : int;
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
}

type t = {
  c : counts;
  procs : (string, proc_agg) Hashtbl.t;
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
    c =
      {
        domains;
        jobs = 0;
        succeeded = 0;
        failed = 0;
        fuel_exhausted = 0;
        deadline_exceeded = 0;
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
      };
    procs = Hashtbl.create 64;
  }

(* Add [calls]/[cycles]/[refs] to [name]'s aggregate in [procs]. *)
let add_proc procs name ~calls ~cycles ~refs =
  let agg =
    match Hashtbl.find_opt procs name with
    | Some a -> a
    | None ->
      let a = { a_calls = 0; a_excl_cycles = 0; a_excl_refs = 0 } in
      Hashtbl.add procs name a;
      a
  in
  agg.a_calls <- agg.a_calls + calls;
  agg.a_excl_cycles <- agg.a_excl_cycles + cycles;
  agg.a_excl_refs <- agg.a_excl_refs + refs

let record t (r : Job.result) =
  let c = t.c in
  c.jobs <- c.jobs + 1;
  (match r.outcome with
  | Job.Output _ -> c.succeeded <- c.succeeded + 1
  | Job.Failed (kind, _) ->
    c.failed <- c.failed + 1;
    if kind = Job.Fuel_exhausted then c.fuel_exhausted <- c.fuel_exhausted + 1;
    if kind = Job.Deadline_exceeded then
      c.deadline_exceeded <- c.deadline_exceeded + 1);
  c.compile_s <- c.compile_s +. r.stats.Job.compile_s;
  c.run_s <- c.run_s +. r.stats.Job.run_s;
  (match r.stats.Job.translation with
  | Job.No_translation -> ()
  | Job.Translated { hit; translate_s; lazy_translated; fused_calls; _ } ->
    c.translate_s <- c.translate_s +. translate_s;
    if hit then c.translation_hits <- c.translation_hits + 1
    else c.translation_misses <- c.translation_misses + 1;
    c.lazy_translated <- c.lazy_translated + lazy_translated;
    c.fused_calls <- c.fused_calls + fused_calls);
  (match r.stats.Job.devirt_stats with
  | None -> ()
  | Some d ->
    c.devirt_jobs <- c.devirt_jobs + 1;
    c.devirt_sites <- c.devirt_sites + d.Fpc_mesa.Image.dv_sites;
    c.devirt_proven <- c.devirt_proven + d.dv_proven;
    c.devirt_rewritten <- c.devirt_rewritten + d.dv_rewritten;
    c.devirt_short <- c.devirt_short + d.dv_short);
  c.minor_words <- c.minor_words + r.stats.Job.minor_words;
  c.instructions <- c.instructions + r.stats.Job.instructions;
  c.cycles <- c.cycles + r.stats.Job.cycles;
  c.mem_refs <- c.mem_refs + r.stats.Job.mem_refs;
  match r.profile with
  | None -> ()
  | Some s ->
    c.traced_jobs <- c.traced_jobs + 1;
    c.trace_events <- c.trace_events + s.Fpc_trace.Profile.s_events;
    List.iter
      (fun (p : Fpc_trace.Profile.proc_stat) ->
        add_proc t.procs p.ps_name ~calls:p.ps_calls ~cycles:p.ps_excl_cycles
          ~refs:p.ps_excl_refs)
      s.Fpc_trace.Profile.s_procs

(* An arena's counters are cumulative over its life, so the latest
   reading replaces the previous one rather than adding to it. *)
let set_arena t s = t.c.arena <- s

let merge_into ~src ~into =
  let s = src.c and d = into.c in
  d.jobs <- d.jobs + s.jobs;
  d.succeeded <- d.succeeded + s.succeeded;
  d.failed <- d.failed + s.failed;
  d.fuel_exhausted <- d.fuel_exhausted + s.fuel_exhausted;
  d.deadline_exceeded <- d.deadline_exceeded + s.deadline_exceeded;
  d.compile_s <- d.compile_s +. s.compile_s;
  d.run_s <- d.run_s +. s.run_s;
  d.translate_s <- d.translate_s +. s.translate_s;
  d.translation_hits <- d.translation_hits + s.translation_hits;
  d.translation_misses <- d.translation_misses + s.translation_misses;
  d.lazy_translated <- d.lazy_translated + s.lazy_translated;
  d.fused_calls <- d.fused_calls + s.fused_calls;
  d.devirt_jobs <- d.devirt_jobs + s.devirt_jobs;
  d.devirt_sites <- d.devirt_sites + s.devirt_sites;
  d.devirt_proven <- d.devirt_proven + s.devirt_proven;
  d.devirt_rewritten <- d.devirt_rewritten + s.devirt_rewritten;
  d.devirt_short <- d.devirt_short + s.devirt_short;
  d.minor_words <- d.minor_words + s.minor_words;
  d.instructions <- d.instructions + s.instructions;
  d.cycles <- d.cycles + s.cycles;
  d.mem_refs <- d.mem_refs + s.mem_refs;
  d.traced_jobs <- d.traced_jobs + s.traced_jobs;
  d.trace_events <- d.trace_events + s.trace_events;
  d.arena <- add_arena d.arena s.arena;
  Hashtbl.iter
    (fun name (a : proc_agg) ->
      add_proc into.procs name ~calls:a.a_calls ~cycles:a.a_excl_cycles
        ~refs:a.a_excl_refs)
    src.procs

type proc_cost = {
  pc_name : string;
  pc_calls : int;
  pc_excl_cycles : int;
  pc_excl_refs : int;
}

type snapshot = {
  counts : counts;
  cache : Image_cache.stats;
  wall_s : float;
  proc_costs : proc_cost list;
}

let snapshot t ~wall_s ~cache =
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
      t.procs []
    |> List.sort (fun a b ->
           match compare b.pc_excl_cycles a.pc_excl_cycles with
           | 0 -> compare a.pc_name b.pc_name
           | c -> c)
  in
  { counts = { t.c with domains = t.c.domains }; cache; wall_s; proc_costs }

(* [n / d], or 0 when [d] is not positive. *)
let ratio n d = if d > 0.0 then float_of_int n /. d else 0.0

let arena_hit_rate (a : Arena.stats) =
  let n = a.hits + a.misses in
  if n = 0 then 0.0 else float_of_int a.hits /. float_of_int n

let render (s : snapshot) =
  let c = s.counts in
  let open Fpc_util.Tablefmt in
  let tb = create ~title:"pool metrics" ~columns:[ ("", Left); ("value", Right) ] in
  let row k v = add_row tb [ k; v ] in
  row "domains" (cell_int c.domains);
  row "jobs" (cell_int c.jobs);
  row "  succeeded" (cell_int c.succeeded);
  row "  failed" (cell_int c.failed);
  row "    of which fuel-exhausted" (cell_int c.fuel_exhausted);
  row "    of which deadline-exceeded" (cell_int c.deadline_exceeded);
  row "cache hits / misses"
    (Printf.sprintf "%d / %d" s.cache.Image_cache.hits s.cache.Image_cache.misses);
  row "cache hit rate" (cell_pct (Image_cache.hit_rate s.cache));
  row "cache entries (evictions)"
    (Printf.sprintf "%d (%d)" s.cache.Image_cache.entries
       s.cache.Image_cache.evictions);
  (* shown only when some worker ran with an arena (arena reuse off
     leaves every counter at zero) *)
  if c.arena.Arena.hits + c.arena.Arena.misses > 0 then begin
    row "arena hits / misses"
      (Printf.sprintf "%d / %d" c.arena.Arena.hits c.arena.Arena.misses);
    row "arena hit rate" (cell_pct (arena_hit_rate c.arena));
    row "arena images / states"
      (Printf.sprintf "%d / %d" c.arena.Arena.images c.arena.Arena.states);
    row "arena evictions" (cell_int c.arena.Arena.evictions);
    row "arena store bytes" (cell_int c.arena.Arena.store_bytes);
    row "arena pages blitted" (cell_int c.arena.Arena.pages_blitted)
  end;
  row "compile time (summed)" (Printf.sprintf "%.3fs" c.compile_s);
  if c.translation_hits + c.translation_misses > 0 then begin
    row "translation hits / misses"
      (Printf.sprintf "%d / %d" c.translation_hits c.translation_misses);
    row "translate time (summed)" (Printf.sprintf "%.3fs" c.translate_s);
    row "procedures lazily translated" (cell_int c.lazy_translated);
    row "fused calls retired" (cell_int c.fused_calls)
  end;
  (* shown only when some job's image actually had late-bound sites, so
     single-module workloads keep their historical table shape *)
  if c.devirt_sites > 0 then begin
    row "devirt sites (summed per job)" (cell_int c.devirt_sites);
    row "  proven single-target" (cell_int c.devirt_proven);
    row "  rewritten to DIRECTCALL" (cell_int c.devirt_rewritten);
    row "    of which short form" (cell_int c.devirt_short)
  end;
  row "run time (summed)" (Printf.sprintf "%.3fs" c.run_s);
  row "wall time" (Printf.sprintf "%.3fs" s.wall_s);
  row "throughput"
    (Printf.sprintf "%s jobs/s" (cell_float ~decimals:1 (ratio c.jobs s.wall_s)));
  row "minor words (total)" (cell_int c.minor_words);
  row "minor words / job"
    (cell_float ~decimals:1 (ratio c.minor_words (float_of_int c.jobs)));
  row "simulated instructions" (cell_int c.instructions);
  row "simulated cycles" (cell_int c.cycles);
  row "simulated storage refs" (cell_int c.mem_refs);
  if c.traced_jobs > 0 then begin
    row "traced jobs" (cell_int c.traced_jobs);
    row "trace events" (cell_int c.trace_events);
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
  let c = s.counts in
  let open Fpc_util.Jsonout in
  Obj
    [
      ("domains", Int c.domains);
      ("jobs", Int c.jobs);
      ("succeeded", Int c.succeeded);
      ("failed", Int c.failed);
      ("fuel_exhausted", Int c.fuel_exhausted);
      ("deadline_exceeded", Int c.deadline_exceeded);
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
            ("hits", Int c.arena.Arena.hits);
            ("misses", Int c.arena.Arena.misses);
            ("evictions", Int c.arena.Arena.evictions);
            ("images", Int c.arena.Arena.images);
            ("states", Int c.arena.Arena.states);
            ("store_bytes", Int c.arena.Arena.store_bytes);
            ("pages_blitted", Int c.arena.Arena.pages_blitted);
            ("hit_rate", Float (arena_hit_rate c.arena));
          ] );
      ("compile_s", Float c.compile_s);
      ( "translation",
        Obj
          [
            ("hits", Int c.translation_hits);
            ("misses", Int c.translation_misses);
            ("translate_s", Float c.translate_s);
            ("lazy_translated", Int c.lazy_translated);
            ("fused_calls", Int c.fused_calls);
          ] );
      ( "devirt",
        Obj
          [
            ("jobs", Int c.devirt_jobs);
            ("sites", Int c.devirt_sites);
            ("proven", Int c.devirt_proven);
            ("rewritten", Int c.devirt_rewritten);
            ("short", Int c.devirt_short);
          ] );
      ("run_s", Float c.run_s);
      ("wall_s", Float s.wall_s);
      ("jobs_per_sec", Float (ratio c.jobs s.wall_s));
      ("minor_words", Int c.minor_words);
      ("minor_words_per_job", Float (ratio c.minor_words (float_of_int c.jobs)));
      ("instructions", Int c.instructions);
      ("cycles", Int c.cycles);
      ("mem_refs", Int c.mem_refs);
      ("traced_jobs", Int c.traced_jobs);
      ("trace_events", Int c.trace_events);
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
