(* bench/serve: the serving benchmark.

     main.exe [--seed N] [--workload W] [--seconds S] [--trace [0|1]]
              [--smoke] [--json FILE]
     main.exe compare A.json... -- B.json...

   Each workload runs four `fpc serve --tcp 0 -j 1` servers in turn, each
   driven over one loopback connection through cycles of closed-loop
   saturation and an open-loop reference step, each after a host-speed
   sample, then an SLO ladder on the last one, and checks every answer
   against the interpreter.  End-to-end times are multiplied, and rates
   divided, by the run's host speed (Host_speed), so that they read as on
   the recording host.  With --trace, half the time goes to that untraced
   run (on one server) and half to driving the same request stream
   in-process with a span around each layer call, which gives the
   per-layer metrics.  The last line of stdout is a JSON
   object: {"correct", "attempted", "failed", "metrics"}.  README.md has
   the details and the measured spreads. *)

module Stream = Workload.Stream

type options = {
  seed : int;
  workloads : Workload.t list;
  seconds : float;
  trace : bool;
  smoke : bool;
  json : string option;
}

(* ---- one workload ---- *)

type outcome = {
  w : Workload.t;
  e2e : (string * Metrics.value) list;
  layers : (string * Metrics.value) list;  (** empty unless traced *)
  phases : Phases.t;
  attempted : int;
  failed : int;
  wrong : int;
  conservation : (float * float) option;  (** compile pieces vs cache miss, us *)
  trace_events : Buffer.t;  (** Chrome trace events, comma-separated *)
}

let value ~n v = { Metrics.v; n }

(* Check the sampled serve-cold answers, off the clock. *)
let check_sampled (ck : Load.checker) =
  Hashtbl.fold
    (fun idx reply wrong ->
      let fragment = Workload.reference (Stream.line ck.Load.stream idx) in
      if Workload.matches ~fragment reply then wrong else wrong + 1)
    ck.Load.sampled 0

let checker w ~seed ~times =
  {
    Load.stream = Stream.create w ~seed;
    fragments = Array.of_list (List.map Workload.reference (Workload.distinct w));
    sampled = Hashtbl.create 256;
    times;
  }

let pct_of a q = value ~n:(Array.length a) (Stat.percentile a q)

let mean_of a =
  value ~n:(Array.length a) (Stat.ratio (Stat.sum a) (float_of_int (Array.length a)))

(* Times are multiplied and rates divided by the run's host speed. *)
let e2e_metrics (p : Phases.t) ~cold_wrong =
  let speed = Phases.host_speed p in
  let lat =
    Array.map (fun ms -> ms *. speed) (Phases.over_ok (Phases.reference_logs p) Phases.latency_ms)
  in
  let measured = Phases.sat_logs p @ Phases.reference_logs p in
  let sent = List.fold_left (fun a (log : Load.log) -> a + log.Load.n_due) 0 measured in
  let bad =
    List.fold_left
      (fun a log -> a + Phases.count log (fun k -> not (Phases.is_ok log k)))
      cold_wrong measured
  in
  let servers = List.length p.Phases.servers in
  [
    ("setup_s", value ~n:servers (Stat.median p.Phases.setup_s *. speed));
    ("throughput_rps", value ~n:servers (Phases.throughput_rps p /. speed));
    ("lat_p50_ms", pct_of lat 50.0);
    ("lat_p99_ms", pct_of lat 99.0);
    ("slo_rps", value ~n:(List.length p.Phases.rungs) (Phases.slo_rps p));
    ("fail_frac", value ~n:sent (Stat.ratio (float_of_int bad) (float_of_int sent)));
    ("peak_rss_mb", value ~n:servers (Phases.peak_rss_mb p));
  ]

(* rtt - compile_s - run_s, in us, from the times-gated reply fields. *)
let non_exec_us logs =
  Phases.over_ok logs (fun (log : Load.log) k ->
      let rtt = log.Load.recv.(k) -. log.Load.sent.(k) in
      (rtt -. log.Load.compile_s.(k) -. log.Load.run_s.(k)) *. 1e6)

let layer_metrics (w : Workload.t) (p : Phases.t) (tr : Layers.traced)
    (pool : Layers.pool_run) ~span_cost_s =
  let r = tr.Layers.rec_ and t = tr.Layers.t in
  let fi = float_of_int in
  let to_us b = Array.map (fun s -> s *. 1e6) (Stat.Buf.to_array b) in
  let us name = to_us (Layers.durations r name) in
  let pct name q = pct_of (us name) q in
  let per_job x = value ~n:t.Layers.jobs (Stat.ratio (fi x) (fi t.Layers.jobs)) in
  let ratio ~n a b = value ~n (Stat.ratio (fi a) (fi b)) in
  let cache = tr.Layers.cache and arena = tr.Layers.arena in
  let lookups = cache.Fpc_svc.Image_cache.hits + cache.Fpc_svc.Image_cache.misses in
  let acquires = arena.Fpc_svc.Arena.hits + arena.Fpc_svc.Arena.misses in
  let sites = t.Layers.dv_sites in
  let run_us = to_us tr.Layers.run_per_job in
  let ref_logs = Phases.reference_logs p in
  let top_logs =
    match Phases.top_step p with Some s -> [ s.Phases.log ] | None -> ref_logs
  in
  let open_steps =
    List.map (fun (c : Phases.cycle) -> c.Phases.reference) (Phases.all_cycles p)
    @ p.Phases.rungs
  in
  let rtt_us =
    Phases.over_ok ref_logs (fun log k -> (log.Load.recv.(k) -. log.Load.sent.(k)) *. 1e6)
  in
  (* the request path, layer by layer, against the round trip it makes up *)
  let path_median =
    Stat.sum
      (Array.map
         (fun name -> Stat.percentile (us name) 50.0)
         [| "framing"; "job.parse"; "cache"; "arena.reset"; "tier.attach";
            (if w.Workload.kind = Workload.Sessions then "sched.run" else "tier.run");
            "job.render" |])
  in
  let waits = Array.map (fun s -> s *. 1e6) pool.Layers.queue_wait_s in
  let sched_us = us "sched.run" in
  [
    ( "framing.line_ns",
      let ns = Array.map (fun u -> u *. 1e3) (us "framing") in
      pct_of ns 50.0 );
    ("job.parse_us", pct "job.parse" 50.0);
    ("job.render_us", pct "job.render" 50.0);
    ("job.render_bytes", mean_of (Stat.Buf.to_array tr.Layers.render_bytes));
    ("cache.hit_ratio", ratio ~n:lookups cache.Fpc_svc.Image_cache.hits lookups);
    ("cache.miss_us", mean_of (us "cache.miss"));
    ( "cache.evictions_per_kreq",
      ratio ~n:tr.Layers.requests
        (1000 * cache.Fpc_svc.Image_cache.evictions)
        tr.Layers.requests );
    ("lang.parse_us", mean_of (us "lang.parse"));
    ("lang.typecheck_us", mean_of (us "lang.typecheck"));
    ("compiler.lower_us", mean_of (us "compiler.lower"));
    ("compiler.codegen_us", mean_of (us "compiler.codegen"));
    ("mesa.link_us", mean_of (us "mesa.link"));
    ("cfa.devirt_us", mean_of (us "cfa.devirt"));
    ("cfa.rewrite_ratio", ratio ~n:sites t.Layers.dv_rewritten sites);
    ("cfa.abstain_ratio", ratio ~n:sites t.Layers.dv_abstained sites);
    ("arena.reset_us.p50", pct "arena.reset" 50.0);
    ("arena.reset_us.p99", pct "arena.reset" 99.0);
    ("arena.hit_ratio", ratio ~n:acquires arena.Fpc_svc.Arena.hits acquires);
    ("arena.pages_per_job", per_job arena.Fpc_svc.Arena.pages_blitted);
    ("tier.attach_us", pct "tier.attach" 50.0);
    ("tier.lazy_per_job", per_job t.Layers.lazy_translations);
    ("tier.run_us.p50", pct_of run_us 50.0);
    ("tier.run_us.p99", pct_of run_us 99.0);
    ( "tier.instr_per_us",
      value ~n:t.Layers.jobs (Stat.ratio (fi t.Layers.instructions) (Stat.sum run_us)) );
    ("tier.fused_call_ratio", ratio ~n:t.Layers.calls t.Layers.fused_calls t.Layers.calls);
    ( "tier.deopt_ratio",
      ratio ~n:t.Layers.instructions t.Layers.deopts t.Layers.instructions );
    ("interp.run_us.p50", pct "interp.run" 50.0);
    ( "interp.instr_per_us",
      value ~n:t.Layers.jobs
        (Stat.ratio (fi t.Layers.interp_instructions) (Stat.sum (us "interp.run"))) );
    ("xfer.per_job", per_job t.Layers.xfers);
    ( "xfer.fast_ratio",
      ratio ~n:t.Layers.xfers t.Layers.fast_xfers
        (t.Layers.fast_xfers + t.Layers.slow_xfers) );
    ("sched.switches_per_job", per_job t.Layers.switches);
    ("pool.queue_wait_us.p50", pct_of waits 50.0);
    ("pool.queue_wait_us.p99", pct_of waits 99.0);
    ( "pool.busy_frac",
      value ~n:pool.Layers.pool_jobs
        (Stat.ratio pool.Layers.busy_s pool.Layers.pool_wall_s) );
    ("server.non_exec_us.p50", pct_of (non_exec_us ref_logs) 50.0);
    ("server.non_exec_us.p99", pct_of (non_exec_us ref_logs) 99.0);
    ("server.non_exec_us.top.p50", pct_of (non_exec_us top_logs) 50.0);
    ("server.non_exec_us.top.p99", pct_of (non_exec_us top_logs) 99.0);
    ( "gc.minor_words_per_job",
      mean_of
        (Phases.over_ok (Phases.sat_logs p @ ref_logs) (fun log k ->
             log.Load.minor_words.(k))) );
    ( "gen.lag_p99_ms",
      pct_of
        (Phases.lags_ms (List.map (fun (s : Phases.step) -> s.Phases.log) open_steps))
        99.0 );
    ( "gen.backlog_max",
      value ~n:(List.length open_steps)
        (fi
           (List.fold_left
              (fun a (s : Phases.step) -> max a s.Phases.log.Load.backlog_max)
              0 open_steps)) );
    ( "trace.unattributed_us",
      value ~n:(Array.length rtt_us) (Stat.percentile rtt_us 50.0 -. path_median) );
    ( "trace.overhead_pct",
      value ~n:r.Layers.next
        (100.0 *. Stat.ratio (span_cost_s *. fi r.Layers.next) tr.Layers.wall_s) );
  ]
  (* what a workload without cache hits or scheduled jobs cannot have *)
  @ (match us "cache.hit" with [||] -> [] | hits -> [ ("cache.hit_us", pct_of hits 50.0) ])
  @
  match sched_us with
  | [||] -> []
  | _ ->
    [ ("sched.run_us.p50", pct_of sched_us 50.0); ("sched.run_us.p99", pct_of sched_us 99.0) ]

(* Σ of the six compile pieces against the cache-miss total, in us. *)
let conservation (tr : Layers.traced) =
  let total name = Stat.Buf.total (Layers.durations tr.Layers.rec_ name) *. 1e6 in
  if Stat.Buf.length (Layers.durations tr.Layers.rec_ "cache.miss") = 0 then None
  else
    Some
      ( List.fold_left
          (fun a n -> a +. total n)
          0.0
          [ "lang.parse"; "lang.typecheck"; "compiler.lower"; "compiler.codegen";
            "mesa.link"; "cfa.devirt" ],
        total "cache.miss" )

let conserved (pieces, miss) = Float.abs (pieces -. miss) <= 0.1 *. miss

(* Of [seconds], 90% goes to the measured servers: after each set-up and
   0.5 s of warm-up, cycles of about 2.5 s, each two 0.15 s host-speed
   samples, then two fifths saturated and three fifths at the reference
   rate.  The ladder gets the other 10%, in rungs of 2%. *)
let budget_of ~seconds ~servers =
  let warm_s = 0.5 and speed_s = 0.15 and setup_allowance = 0.15 in
  let per_server = (0.9 *. seconds /. float_of_int servers) -. warm_s -. setup_allowance in
  let cycles = max 1 (int_of_float (Float.round (per_server /. 2.5))) in
  let per_cycle = Float.max 0.5 ((per_server /. float_of_int cycles) -. (2.0 *. speed_s)) in
  {
    Phases.servers;
    cycles;
    warm_s;
    speed_s;
    sat_s = 0.4 *. per_cycle;
    ref_s = 0.6 *. per_cycle;
    rung_s = 0.02 *. seconds;
    ladder_s = 0.1 *. seconds;
    rungs = Phases.ladder;
  }

let smoke_budget =
  {
    Phases.servers = 1;
    cycles = 1;
    warm_s = 0.5;
    speed_s = 0.1;
    sat_s = 1.0;
    ref_s = 1.0;
    rung_s = 1.0;
    ladder_s = 2.0;
    rungs = [ 0.6; 0.7 ];
  }

let run_workload opts ~tid (w : Workload.t) =
  let seed = opts.seed in
  let ck = checker w ~seed ~times:(opts.trace || opts.smoke) in
  (* untraced: the whole time, or half of it beside the traced run *)
  let budget =
    if opts.smoke then smoke_budget
    else if opts.trace then budget_of ~seconds:(0.5 *. opts.seconds) ~servers:1
    else budget_of ~seconds:opts.seconds ~servers:4
  in
  let p = Phases.run w ck ~seed ~budget in
  let net_wrong = Phases.wrong p + check_sampled ck in
  let cold_wrong = net_wrong - Phases.wrong p in
  let e2e = e2e_metrics p ~cold_wrong in
  let base =
    { w; e2e; layers = []; phases = p; attempted = Phases.sent p;
      failed = Phases.bad p + cold_wrong; wrong = net_wrong; conservation = None;
      trace_events = Buffer.create 16 }
  in
  if not (opts.trace || opts.smoke) then base
  else begin
    let traced_s, pool_s =
      if opts.smoke then (0.5, 0.5) else (0.3 *. opts.seconds, 0.2 *. opts.seconds)
    in
    let tck = { ck with Load.sampled = Hashtbl.create 64 } in
    let tr = Layers.run_traced ~ck:tck ~budget_s:traced_s in
    let pool =
      Layers.run_pool ~ck:tck ~base:tr.Layers.requests
        ~rng:(Fpc_util.Prng.create ~seed:((seed * 4_099) + 3))
        ~rate:(Phases.reference_factor *. w.Workload.nominal_rps) ~dur:pool_s tr.Layers.rec_
    in
    Layers.chrome_events base.trace_events ~origin:tr.Layers.t_start ~tid tr.Layers.rec_;
    let traced_wrong =
      tr.Layers.t.Layers.wrong + pool.Layers.pool_wrong + check_sampled tck
    in
    let span_cost_s = Layers.span_cost_s () in
    {
      base with
      layers = layer_metrics w p tr pool ~span_cost_s;
      attempted = base.attempted + tr.Layers.requests + pool.Layers.pool_jobs;
      failed =
        base.failed + tr.Layers.t.Layers.failed + pool.Layers.pool_failed + traced_wrong;
      wrong = base.wrong + traced_wrong;
      conservation = conservation tr;
    }
  end

(* ---- reporting ---- *)

let print_outcome o =
  let p = o.phases and w = o.w in
  Printf.printf "== %s (nominal %.0f req/s, SLO p99 %.0f ms) ==\n" w.Workload.name
    w.Workload.nominal_rps w.Workload.slo_p99_ms;
  List.iteri
    (fun i (s : Phases.server) ->
      Printf.printf
        "  server %d: saturation %.1f req/s, rss %.1f MB; cycles (host speeds, saturation \
         req/s, reference p50 ms, generator lag p99 ms):\n   "
        i (Phases.sat_rps p s) s.Phases.peak_rss_mb;
      List.iter
        (fun (c : Phases.cycle) ->
          let lat = Phases.over_ok [ c.Phases.reference.Phases.log ] Phases.latency_ms in
          Printf.printf " %.3f+%.3f/%.1f/%.3f/%.2f" c.Phases.sat_speed c.Phases.ref_speed
            (float_of_int (Phases.sat_ok c.Phases.sat) /. p.Phases.sat_s)
            (Stat.percentile lat 50.0) c.Phases.reference.Phases.lag_p99_ms)
        s.Phases.cycles;
      print_newline ())
    p.Phases.servers;
  Printf.printf
    "  host speed %.4f (median): end-to-end times below are the measured ones times it,\n\
    \  rates the measured ones over it; steps below are as measured, offered at x nom x speed\n"
    (Phases.host_speed p);
  Printf.printf "  %-6s %7s %7s %10s %10s %9s %9s %8s  %s\n" "step" "x nom" "speed" "rate"
    "achieved" "p99 ms" "lag p99" "backlog" "verdict";
  List.iteri
    (fun i (s : Phases.step) ->
      Printf.printf "  %-6s %7.1f %7.3f %10.0f %10.1f %9.2f %9.3f %8d  %s\n"
        (if i = 0 then "ref" else Printf.sprintf "rung%d" i)
        s.Phases.factor s.Phases.speed s.Phases.rate s.Phases.achieved_rps s.Phases.p99_ms
        s.Phases.lag_p99_ms s.Phases.log.Load.outstanding_at_end
        (if not s.Phases.valid then "invalid (generator late)"
         else if s.Phases.passed then "pass"
         else "fail"))
    (Phases.last_reference p :: p.Phases.rungs);
  let show specs values =
    List.iter
      (fun (s : Metrics.spec) ->
        match List.assoc_opt s.Metrics.name values with
        | None -> ()
        | Some x ->
          Printf.printf "  %-28s %14.4f %-6s n=%-7d %s\n" s.Metrics.name x.Metrics.v
            s.Metrics.unit_ x.Metrics.n s.Metrics.note)
      specs
  in
  show Metrics.e2e o.e2e;
  show Metrics.per_layer o.layers;
  (match o.conservation with
  | Some ((pieces, miss) as c) ->
    Printf.printf "  compile pieces %.0f us vs cache misses %.0f us (%+.1f%%): %s\n" pieces
      miss
      (100.0 *. Stat.ratio (pieces -. miss) miss)
      (if conserved c then "conserved" else "NOT conserved")
  | None -> ());
  Printf.printf "  attempted=%d failed=%d wrong=%d\n%!" o.attempted o.failed o.wrong

let git_commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | ic -> (
    let line = try Some (input_line ic) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when String.length l >= 7 -> l
    | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let results_json opts outcomes =
  let open Fpc_util.Jsonout in
  Obj
    [
      ( "host",
        Obj
          [
            ("cores", Int (Domain.recommended_domain_count ()));
            ("ocaml", String Sys.ocaml_version);
            ("commit", String (git_commit ()));
            ("seed", Int opts.seed);
            ("seconds", Float opts.seconds);
          ] );
      ( "results",
        List
          (List.map
             (fun o ->
               Obj
                 [
                   ("workload", String o.w.Workload.name);
                   ("attempted", Int o.attempted);
                   ("failed", Int o.failed);
                   ("wrong", Int o.wrong);
                   ("host_speed", Float (Phases.host_speed o.phases));
                   ( "metrics",
                     Obj
                       (Metrics.json_fields ~with_n:true (Metrics.e2e @ Metrics.per_layer)
                          (o.e2e @ o.layers)) );
                 ])
             outcomes) );
    ]

(* The last line of stdout: the gated metrics of the run (end-to-end, or
   per-layer with --trace), by bare name for one workload and by
   workload-qualified name for several. *)
let summary_line opts outcomes =
  let open Fpc_util.Jsonout in
  let specs = Metrics.gated (if opts.trace then Metrics.per_layer else Metrics.e2e) in
  let fields o = Metrics.json_fields specs (if opts.trace then o.layers else o.e2e) in
  let metrics =
    match outcomes with
    | [ o ] -> fields o
    | _ ->
      List.concat_map
        (fun o -> List.map (fun (k, v) -> (o.w.Workload.name ^ "." ^ k, v)) (fields o))
        outcomes
  in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  to_string
    (Obj
       [
         ("correct", Bool (sum (fun o -> o.wrong) = 0));
         ("attempted", Int (max 1 (sum (fun o -> o.attempted))));
         ("failed", Int (sum (fun o -> o.failed)));
         ("metrics", Obj metrics);
       ])

(* ---- smoke ---- *)

let smoke_check outcomes =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let file = Bench_file.load () in
  List.iter (fail "BENCHMARK.json: %s") (Bench_file.disagreements file);
  let named =
    List.map
      (fun (s : Metrics.spec) -> s.Metrics.name)
      (file.Bench_file.e2e @ file.Bench_file.per_layer)
  in
  List.iter
    (fun o ->
      if o.wrong > 0 then fail "%s: %d wrong answers" o.w.Workload.name o.wrong;
      List.iter
        (fun name ->
          if not (List.mem_assoc name (o.e2e @ o.layers)) then
            fail "%s: metric %s missing" o.w.Workload.name name)
        named;
      match (o.w.Workload.kind, o.conservation) with
      | Workload.Cold, Some c when not (conserved c) ->
        fail "serve-cold: compile pieces do not sum to the cache misses"
      | _ -> ())
    outcomes;
  List.rev !problems

(* ---- command line ---- *)

let usage () =
  prerr_string
    "usage: main.exe [--seed N] [--workload W] [--seconds S] [--trace [0|1]] [--smoke] \
     [--json FILE]\n\
    \       main.exe compare A.json... -- B.json...\n";
  exit 2

let parse_args args =
  let opts =
    ref
      { seed = 1; workloads = Workload.all; seconds = 55.0; trace = false; smoke = false;
        json = None }
  in
  let int_arg s = match int_of_string_opt s with Some n when n >= 0 -> n | _ -> usage () in
  let rec go = function
    | [] -> ()
    | "--seed" :: n :: rest ->
      opts := { !opts with seed = int_arg n };
      go rest
    | "--workload" :: name :: rest -> (
      match Workload.find name with
      | Some w ->
        opts := { !opts with workloads = [ w ] };
        go rest
      | None ->
        Printf.eprintf "unknown workload %s (use %s)\n" name
          (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
        exit 2)
    | "--seconds" :: s :: rest ->
      let s = int_arg s in
      if s < 1 then usage ();
      opts := { !opts with seconds = float_of_int s };
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      opts := { !opts with trace = v = "1" };
      go rest
    | "--trace" :: rest ->
      opts := { !opts with trace = true };
      go rest
    | "--smoke" :: rest ->
      opts := { !opts with smoke = true };
      go rest
    | "--json" :: file :: rest ->
      opts := { !opts with json = Some file };
      go rest
    | _ -> usage ()
  in
  go args;
  !opts

let trace_path json =
  match json with
  | Some f when Filename.check_suffix f ".json" ->
    Filename.chop_suffix f ".json" ^ ".trace.json"
  | Some f -> f ^ ".trace.json"
  | None -> "bench-serve.trace.json"

let main opts =
  let outcomes =
    List.mapi
      (fun tid w ->
        let o = run_workload opts ~tid w in
        print_outcome o;
        o)
      opts.workloads
  in
  if opts.smoke then begin
    match smoke_check outcomes with
    | [] -> print_endline "smoke: ok"
    | problems ->
      List.iter (Printf.printf "smoke: %s\n") problems;
      exit 1
  end
  else begin
    (match opts.json with
    | Some f -> write_file f (Fpc_util.Jsonout.pretty (results_json opts outcomes))
    | None -> ());
    if opts.trace then
      write_file (trace_path opts.json)
        ("{\"traceEvents\":["
        ^ String.concat ","
            (List.filter_map
               (fun o ->
                 if Buffer.length o.trace_events = 0 then None
                 else Some (Buffer.contents o.trace_events))
               outcomes)
        ^ "],\"displayTimeUnit\":\"ns\"}\n")
  end;
  print_endline (summary_line opts outcomes);
  if List.exists (fun o -> o.wrong > 0) outcomes then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> Compare.main rest
  | args -> main (parse_args args)
