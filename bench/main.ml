(* The benchmark harness.

   Two layers:

   1. The experiment tables — one per figure/table/quantitative claim of
      the paper (E1..E14), printed in full.  These are the reproduction's
      primary output; pass experiment keys (or E-ids) as arguments to run a
      subset, e.g. `dune exec bench/main.exe -- fastpath frame_alloc`.

   2. Bechamel micro-benchmarks of the simulator itself (host wall-clock),
      so regressions in the reproduction's own code are visible: the
      interpreter under each engine, the AV allocator, the return stack and
      the bank file.  Enabled with the `micro` argument.

   3. The execution-service scaling benchmark (`svc` argument): the
      whole workload suite x all four engines pushed through an
      Fpc_svc.Pool at 1, 2, 4 and 8 worker domains, reporting jobs/sec
      and the speedup over one domain.  The cache is warmed and the
      domains are spawned before the clock starts; only submit->await
      is timed.

   4. The tracing-overhead benchmark (`trace` argument): the call-heavy
      fib run with the XFER tracer absent (the null-sink path every
      ordinary run takes) versus attached with a streaming profile, so
      the cost of the lib/trace subsystem — off and on — is a recorded
      number rather than a claim.

   5. The session-scheduler benchmark (`sched` argument): the generated
      session workload streamed through the lib/sched green-thread
      scheduler at 100/1k/10k sessions under both execution tiers,
      recording throughput and the frame-heap-vs-LIFO footprint keys
      (the `sched/sessions` section).

   6. The TCP serving benchmark (`net` argument): an in-process
      lib/net server driven closed-loop by Fpc_net.Loadgen at 1, 2 and
      4 connections, recording throughput and round-trip latency
      percentiles (the `net/latency` section).  With `--port` it
      targets an already-running `fpc serve --tcp` instead (the CI
      serve-smoke step), and `--shutdown` sends the server a graceful
      drain afterwards.  The non-smoke run continues into the
      high-concurrency ladder: a spawned `fpc serve --tcp` subprocess
      driven at 100 and 1000 pipelined connections while a poller
      samples the server's /proc thread and fd tables, recording
      latency percentiles plus the observed footprint
      (`net/latency/100c`, `net/latency/1000c`) and failing if the
      server's OS thread count ever exceeds the reactor's constant
      bound.  `--conns N [--pipeline K]` runs just that ladder, capped
      at N connections — the CI reactor-smoke step is
      `bench net --conns 200`.

   With no arguments all six layers run.  `--smoke` shrinks the svc,
   trace, sched and net layers to a seconds-long CI sanity pass (tiny job set,
   widths 1-2, nothing recorded).  `--json` additionally writes
   every recorded (name, metric, value) measurement to
   BENCH_results.json, the perf-trajectory file tracked across PRs:
   prior entries are carried over and only re-measured (name, metric)
   pairs are replaced, so the file accumulates instead of resetting. *)

(* Measurements destined for BENCH_results.json, in recording order. *)
let recorded : (string * string * float) list ref = ref []
let record name metric value = recorded := (name, metric, value) :: !recorded

let read_prior path =
  if not (Sys.file_exists path) then []
  else
    match Fpc_util.Jsonin.parse_file path with
    | Ok (Fpc_util.Jsonout.List entries) ->
      List.filter_map
        (function
          | Fpc_util.Jsonout.Obj fields -> (
            match
              ( List.assoc_opt "name" fields,
                List.assoc_opt "metric" fields,
                List.assoc_opt "value" fields )
            with
            | ( Some (Fpc_util.Jsonout.String n),
                Some (Fpc_util.Jsonout.String m),
                Some v ) -> (
              match v with
              | Fpc_util.Jsonout.Float f -> Some (n, m, f)
              | Fpc_util.Jsonout.Int i -> Some (n, m, float_of_int i)
              | _ -> None)
            | _ -> None)
          | _ -> None)
        entries
    | Ok _ | Error _ -> []

let prior_value prior name metric =
  List.find_map
    (fun (n, m, v) -> if n = name && m = metric then Some v else None)
    prior

let write_json path =
  let open Fpc_util.Jsonout in
  let fresh = List.rev !recorded in
  let remeasured = List.map (fun (n, m, _) -> (n, m)) fresh in
  let carried =
    List.filter (fun (n, m, _) -> not (List.mem (n, m) remeasured)) (read_prior path)
  in
  let entries =
    List.map
      (fun (name, metric, value) ->
        Obj [ ("name", String name); ("metric", String metric); ("value", Float value) ])
      (carried @ fresh)
  in
  let oc = open_out path in
  output_string oc (pretty (List entries));
  close_out oc;
  Printf.printf "wrote %d measurements to %s (%d carried over, %d new)\n"
    (List.length entries) path (List.length carried) (List.length fresh)

let run_experiments filter =
  let wanted (key, _) =
    match filter with [] -> true | names -> List.mem key names
  in
  let selected = List.filter wanted Fpc_experiments.Registry.all in
  let selected =
    if selected = [] && filter <> [] then
      (* maybe ids like E4 were given *)
      List.filter_map
        (fun name ->
          Option.map (fun f -> (name, f)) (Fpc_experiments.Registry.find name))
        filter
    else selected
  in
  List.iter
    (fun (_, f) ->
      print_string (Fpc_experiments.Exp.render (f ()));
      print_newline ())
    selected

(* ------------------------------------------------------------------ *)

let fib_image engine =
  let convention = Fpc_compiler.Convention.for_engine engine in
  match Fpc_compiler.Compile.image ~convention (Fpc_workload.Programs.find "fib") with
  | Ok image -> image
  | Error m -> failwith m

let bench_engine name engine =
  let image = fib_image engine in
  Bechamel.Test.make ~name:(Printf.sprintf "interp/fib/%s" name)
    (Bechamel.Staged.stage (fun () ->
         let st =
           Fpc_interp.Interp.run_program ~image ~engine ~instance:"Main"
             ~proc:"main" ~args:[] ()
         in
         assert (st.Fpc_core.State.status = Fpc_core.State.Halted)))

let median_run_s ?(samples = 7) ?(runs = 5) f =
  f ();
  (* warm up caches and the minor heap *)
  let samples =
    List.init samples (fun _ ->
        let t0 = Fpc_util.Clock.now () in
        for _ = 1 to runs do
          f ()
        done;
        (Fpc_util.Clock.now () -. t0) /. float_of_int runs)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (List.length sorted / 2)

(* The compiled tier on the same workload: boot is shared with the
   interpreter path, so the delta between interp/fib/* and tier/fib/* is
   exactly the dispatch loop versus threaded code. *)
let bench_tier name engine =
  let image = fib_image engine in
  let tier, _ = Fpc_tier.Tier.of_image image in
  Bechamel.Test.make ~name:(Printf.sprintf "tier/fib/%s" name)
    (Bechamel.Staged.stage (fun () ->
         let st =
           Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main"
             ~args:[] ()
         in
         Fpc_tier.Tier.run tier st;
         assert (st.Fpc_core.State.status = Fpc_core.State.Halted)))

(* Translation time: what attaching the compiled tier to a freshly
   linked image costs, per engine, on the call-heavy fib image.  One-time
   per cached image, but it sits on the first-request path. *)
let run_tier_compile () =
  let open Fpc_util.Tablefmt in
  let tb =
    create ~title:"tier translation time (fib image, host wall-clock)"
      ~columns:
        [ ("engine", Left); ("boundaries", Right); ("fused", Right);
          ("translate", Right) ]
  in
  List.iter
    (fun (name, engine) ->
      let image = fib_image engine in
      let t = Fpc_tier.Tier.translate image in
      let ms = median_run_s (fun () -> ignore (Fpc_tier.Tier.translate image)) *. 1e3 in
      record ("compile/fib/" ^ name) "translate_ms" ms;
      add_row tb
        [ name; cell_int (Fpc_tier.Tier.boundaries t);
          cell_int (Fpc_tier.Tier.fused_boundaries t);
          Printf.sprintf "%.3f ms" ms ])
    [ ("I1", Fpc_core.Engine.i1); ("I2", Fpc_core.Engine.i2);
      ("I3", Fpc_core.Engine.i3 ()); ("I4", Fpc_core.Engine.i4 ()) ];
  add_note tb "translate once per cached image; every clone shares the result";
  print tb;
  print_newline ()

(* Cross-call fusion on the call-dense kernels: the interpreter versus
   the compiled tier, per engine, on loops that are almost entirely leaf
   procedure calls.  The tier side uses the lazy of_image path, so the
   observation run also yields the fusion/laziness counters recorded to
   BENCH_results.json: fused-call coverage (fused calls / all calls),
   lazy translation misses (procedures translated on first entry, cold)
   and hits (warm-run procedure entries served by already-filled slots —
   spliced leaves never even need their own translation). *)
let run_tier_calls ?(smoke = false) () =
  let open Fpc_util.Tablefmt in
  let tb =
    create
      ~title:"cross-call fusion on call-dense kernels (host wall-clock)"
      ~columns:
        [ ("prog", Left); ("engine", Left); ("interp", Right); ("tier", Right);
          ("speedup", Right); ("fused cov", Right); ("lazy m/h", Right) ]
  in
  List.iter
    (fun prog ->
      List.iter
        (fun (ename, engine) ->
          let convention = Fpc_compiler.Convention.for_engine engine in
          let image =
            match
              Fpc_compiler.Compile.image ~convention
                (Fpc_workload.Programs.find prog)
            with
            | Ok i -> i
            | Error m -> failwith ("tier calls bench compile: " ^ m)
          in
          let tier, _ = Fpc_tier.Tier.of_image image in
          let boot () =
            Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main"
              ~args:[] ()
          in
          let run_tier () =
            let st = boot () in
            Fpc_tier.Tier.run tier st;
            assert (st.Fpc_core.State.status = Fpc_core.State.Halted);
            st
          in
          (* cold observation run: lazy translation happens here *)
          let cold = run_tier () in
          let lazy_miss =
            cold.Fpc_core.State.metrics.Fpc_core.State.tier_lazy_translations
          in
          (* warm observation run: every entered procedure finds its slots *)
          let warm = run_tier () in
          assert (
            warm.Fpc_core.State.metrics.Fpc_core.State.tier_lazy_translations
            = 0);
          let wm = warm.Fpc_core.State.metrics in
          let coverage =
            if wm.Fpc_core.State.calls = 0 then 0.0
            else
              float_of_int wm.Fpc_core.State.tier_fused_calls
              /. float_of_int wm.Fpc_core.State.calls
          in
          let lazy_hit = Fpc_tier.Tier.procs_translated tier in
          let samples = if smoke then 3 else 7 in
          let interp_s =
            median_run_s ~samples ~runs:1 (fun () ->
                let st = boot () in
                Fpc_interp.Interp.run st;
                assert (st.Fpc_core.State.status = Fpc_core.State.Halted))
          in
          let tier_s =
            median_run_s ~samples ~runs:1 (fun () -> ignore (run_tier ()))
          in
          let speedup = interp_s /. tier_s in
          if not smoke then begin
            let name =
              Printf.sprintf "micro/fpc/tier/calls/%s/%s" prog ename
            in
            record name "interp_ns_per_run" (interp_s *. 1e9);
            record name "tier_ns_per_run" (tier_s *. 1e9);
            record name "speedup" speedup;
            record name "fused_call_coverage" coverage;
            record name "lazy_miss" (float_of_int lazy_miss);
            record name "lazy_hit" (float_of_int lazy_hit);
            record name "procs" (float_of_int (Fpc_tier.Tier.procs tier));
            record name "procs_translated"
              (float_of_int (Fpc_tier.Tier.procs_translated tier))
          end;
          add_row tb
            [ prog; ename;
              Printf.sprintf "%.2f ms" (interp_s *. 1e3);
              Printf.sprintf "%.2f ms" (tier_s *. 1e3);
              Printf.sprintf "%.2fx" speedup;
              Printf.sprintf "%.0f%%" (coverage *. 100.0);
              Printf.sprintf "%d/%d" lazy_miss lazy_hit ])
        [ ("i1", Fpc_core.Engine.i1); ("i2", Fpc_core.Engine.i2);
          ("i3", Fpc_core.Engine.i3 ()); ("i4", Fpc_core.Engine.i4 ()) ])
    Fpc_workload.Programs.call_dense;
  add_note tb
    "fused cov = fused calls / all calls (simulated, exact); lazy m/h = \
     procedures translated on first entry / warm-run entries served from \
     filled slots";
  print tb;
  print_newline ()

(* Link-time devirtualization on the cross-module kernels: the
   late-bound image versus the devirtualized image, interpreter under
   I1/I2 (the externally-linked pairings — I3/I4 bind early and have no
   sites).  The simulated cycle and storage-reference meters are exact;
   wall clock rides along so the host-side effect of fewer link-vector
   loads is also on the trajectory. *)
let run_devirt ?(smoke = false) () =
  let open Fpc_util.Tablefmt in
  let tb =
    create
      ~title:"link-time devirtualization on cross-module kernels (interp)"
      ~columns:
        [ ("prog", Left); ("engine", Left); ("sites", Right); ("refs", Right);
          ("cycles", Right); ("refs saved", Right); ("host", Right) ]
  in
  List.iter
    (fun prog ->
      List.iter
        (fun (ename, engine) ->
          let convention = Fpc_compiler.Convention.for_engine engine in
          let source = Fpc_workload.Programs.find prog in
          let build devirt =
            match Fpc_compiler.Compile.image ~convention ~devirt source with
            | Ok i -> i
            | Error m -> failwith ("devirt bench compile: " ^ m)
          in
          let base = build false and dv = build true in
          let measure image =
            let st =
              Fpc_interp.Interp.run_program
                ~image:(Fpc_mesa.Image.clone image) ~engine ~instance:"Main"
                ~proc:"main" ~args:[] ()
            in
            assert (st.Fpc_core.State.status = Fpc_core.State.Halted);
            ( Fpc_machine.Cost.cycles st.Fpc_core.State.cost,
              Fpc_machine.Cost.mem_refs st.Fpc_core.State.cost )
          in
          let cycles_b, refs_b = measure base in
          let cycles_d, refs_d = measure dv in
          let samples = if smoke then 3 else 7 in
          let host image =
            median_run_s ~samples ~runs:1 (fun () ->
                let st =
                  Fpc_interp.Interp.run_program
                    ~image:(Fpc_mesa.Image.clone image) ~engine
                    ~instance:"Main" ~proc:"main" ~args:[] ()
                in
                assert (st.Fpc_core.State.status = Fpc_core.State.Halted))
          in
          let host_b = host base and host_d = host dv in
          let rewritten =
            match dv.Fpc_mesa.Image.dir.Fpc_mesa.Image.devirt with
            | Some d -> d.Fpc_mesa.Image.dv_rewritten
            | None -> 0
          in
          let saved = float_of_int (refs_b - refs_d) /. float_of_int refs_b in
          if not smoke then begin
            let name = Printf.sprintf "micro/fpc/devirt/%s/%s" prog ename in
            record name "sites_rewritten" (float_of_int rewritten);
            record name "mem_refs_base" (float_of_int refs_b);
            record name "mem_refs_devirt" (float_of_int refs_d);
            record name "cycles_base" (float_of_int cycles_b);
            record name "cycles_devirt" (float_of_int cycles_d);
            record name "refs_saved_pct" (100.0 *. saved);
            record name "interp_ns_per_run_base" (host_b *. 1e9);
            record name "interp_ns_per_run_devirt" (host_d *. 1e9)
          end;
          add_row tb
            [ prog; ename; cell_int rewritten;
              Printf.sprintf "%d -> %d" refs_b refs_d;
              Printf.sprintf "%d -> %d" cycles_b cycles_d;
              Printf.sprintf "%.1f%%" (100.0 *. saved);
              Printf.sprintf "%.2f -> %.2f ms" (host_b *. 1e3) (host_d *. 1e3) ])
        [ ("i1", Fpc_core.Engine.i1); ("i2", Fpc_core.Engine.i2) ])
    [ "callchain"; "leafcalls"; "xleaf" ];
  add_note tb
    "refs and cycles are simulated meters (exact); host is wall-clock \
     median; sites = EXTERNALCALL sites rewritten to DIRECTCALL";
  print tb;
  print_newline ()

let bench_allocator =
  Bechamel.Test.make ~name:"allocator/alloc+free"
    (Bechamel.Staged.stage (fun () ->
         let open Fpc_machine in
         let cost = Cost.create () in
         let mem = Memory.create ~cost ~size_words:65536 () in
         let av =
           Fpc_frames.Alloc_vector.create ~mem ~ladder:Fpc_frames.Size_class.default
             ~av_base:16 ~heap_base:1024 ~heap_limit:65536 ()
         in
         for _ = 1 to 1000 do
           let lf = Fpc_frames.Alloc_vector.alloc_words av ~cost ~body_words:8 in
           Fpc_frames.Alloc_vector.free av ~cost ~lf
         done))

let bench_return_stack =
  Bechamel.Test.make ~name:"return_stack/push+pop"
    (Bechamel.Staged.stage (fun () ->
         let rs = Fpc_ifu.Return_stack.create ~depth:16 in
         for _ = 1 to 1000 do
           Fpc_ifu.Return_stack.push rs ~lf:8192 ~gf:4096 ~cb:32768 ~pc_abs:65536
             ~bank:Fpc_ifu.Return_stack.no_bank;
           ignore (Fpc_ifu.Return_stack.try_pop rs)
         done))

let bench_banks =
  Bechamel.Test.make ~name:"bank_file/call+return"
    (Bechamel.Staged.stage (fun () ->
         let open Fpc_machine in
         let cost = Cost.create () in
         let mem = Memory.create ~cost ~size_words:65536 () in
         let bf =
           Fpc_regbank.Bank_file.create ~mem ~cost
             ~ladder:Fpc_frames.Size_class.default ()
         in
         Memory.poke mem 8192 0;
         let lf = 8196 in
         for _ = 1 to 1000 do
           Fpc_regbank.Bank_file.on_call bf ~callee_lf:lf ~payload_words:8
             ~args:[| 1; 2 |];
           Fpc_regbank.Bank_file.release_frame bf ~lf
         done))

(* ------------------------------------------------------------------ *)

(* Pool scaling: the full suite x all four engines, twice over, at
   increasing domain counts.  Methodology (the fairness fix): one image
   cache, warmed before any clock starts, is shared by every width, the
   pool is created (domains spawned) off the clock, and the measured
   window is exactly submit -> await — so the numbers isolate the pool's
   execution path instead of charging it for Domain.spawn and cold
   compiles.  Simulated results are deterministic, so the run also
   double-checks that every job succeeds at every width.

   Recorded as the `svc/scaling` section; the older end-to-end
   `svc/throughput` keys are left in BENCH_results.json (carried over by
   the merge) so the trajectory across methodologies stays visible.

   Both execution tiers run the same sweep.  The historical
   `svc/scaling/*` keys pin tier=interp explicitly (Auto now resolves to
   the compiled tier, and silently rebasing those keys would corrupt the
   cross-PR trajectory); the compiled tier records alongside as
   `svc/scaling/tier/*`. *)
let run_svc ?(smoke = false) () =
  let programs =
    if smoke then [ "fib"; "hanoi" ] else Fpc_workload.Programs.names
  in
  let specs_for tier =
    let specs =
      List.concat_map
        (fun name ->
          List.map
            (fun engine ->
              Fpc_svc.Job.spec ~engine ~tier (Fpc_svc.Job.Suite name))
            [ "i1"; "i2"; "i3"; "i4" ])
        programs
    in
    if smoke then specs else specs @ specs
  in
  let widths = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let check_all_ok results =
    List.iter
      (fun (r : Fpc_svc.Job.result) ->
        match r.Fpc_svc.Job.outcome with
        | Fpc_svc.Job.Output _ -> ()
        | Fpc_svc.Job.Failed (_, m) ->
          failwith (Printf.sprintf "svc bench job %d failed: %s" r.Fpc_svc.Job.id m))
      results
  in
  let open Fpc_util.Tablefmt in
  let tb =
    create
      ~title:
        (Printf.sprintf
           "svc pool scaling (suite x 4 engines%s, warmed cache, both tiers)"
           (if smoke then "" else ", x2"))
      ~columns:
        [ ("tier", Left); ("domains", Right); ("jobs", Right);
          ("submit->await", Right); ("jobs/sec", Right); ("speedup", Right);
          ("cache hit", Right) ]
  in
  List.iter
    (fun (tier_label, tier, key_prefix) ->
      let specs = specs_for tier in
      let njobs = List.length specs in
      (* Warm the shared cache: every distinct image compiled (predecode
         built, and on the compiled tier the translation attached) before
         any measurement.  The cache is per tier — pristine entries are
         tier-keyed. *)
      let cache = Fpc_svc.Image_cache.create () in
      let warm_results, _ = Fpc_svc.Pool.run_jobs ~domains:1 ~cache specs in
      check_all_ok warm_results;
      let base = ref 0.0 in
      List.iter
        (fun domains ->
          let pool = Fpc_svc.Pool.create ~domains ~cache () in
          let t0 = Fpc_util.Clock.now () in
          List.iter (fun spec -> ignore (Fpc_svc.Pool.submit pool spec)) specs;
          let results = Fpc_svc.Pool.await pool in
          let wall = Fpc_util.Clock.now () -. t0 in
          let metrics = Fpc_svc.Pool.metrics pool in
          Fpc_svc.Pool.shutdown pool;
          check_all_ok results;
          if List.length results <> njobs then
            failwith "svc bench: not every job came back";
          let jps = float_of_int njobs /. wall in
          if !base = 0.0 then base := jps;
          if not smoke then begin
            record (Printf.sprintf "%s/%dd" key_prefix domains) "jobs_per_sec" jps;
            record (Printf.sprintf "%s/%dd" key_prefix domains) "speedup"
              (jps /. !base)
          end;
          add_row tb
            [ tier_label; cell_int domains; cell_int njobs;
              Printf.sprintf "%.3fs" wall; cell_float ~decimals:1 jps;
              cell_ratio ~decimals:2 (jps /. !base);
              cell_pct
                (Fpc_svc.Image_cache.hit_rate metrics.Fpc_svc.Metrics.cache) ])
        widths)
    [ ("interp", Fpc_svc.Job.Interp, "svc/scaling");
      ("compiled", Fpc_svc.Job.Compiled, "svc/scaling/tier") ];
  if not smoke then
    record "svc/scaling" "host_recommended_domains"
      (float_of_int (Fpc_svc.Pool.recommended_domains ()));
  add_note tb
    (Printf.sprintf
       "measured window is submit->await only; host reports %d recommended domain(s)"
       (Fpc_svc.Pool.recommended_domains ()));
  print tb;
  print_newline ()

(* ------------------------------------------------------------------ *)

(* Per-job allocation: the arena win (reset-per-job vs clone-per-job),
   from each job's own Gc.minor_words delta.  Steady state is the
   per-job minimum over the batch: the first job against each arena slot
   pays the one-time clone, every repeat is the reset path.  The budget
   assertion makes an allocation regression fail the bench (CI runs
   `bench svc --smoke`) instead of silently eroding the win. *)
let alloc_budget_words = 256.0

let run_svc_alloc ?(smoke = false) () =
  let programs =
    if smoke then [ "fib"; "hanoi" ] else Fpc_workload.Programs.names
  in
  let reps = 4 in
  let specs =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun engine ->
            List.init reps (fun _ ->
                Fpc_svc.Job.spec ~engine (Fpc_svc.Job.Suite name)))
          [ "i1"; "i2"; "i3"; "i4" ])
      programs
  in
  let check_all_ok results =
    List.iter
      (fun (r : Fpc_svc.Job.result) ->
        match r.Fpc_svc.Job.outcome with
        | Fpc_svc.Job.Output _ -> ()
        | Fpc_svc.Job.Failed (_, m) ->
          failwith (Printf.sprintf "svc alloc bench job %d failed: %s" r.Fpc_svc.Job.id m))
      results
  in
  (* Compile every image off the books so no job's delta includes the
     compiler. *)
  let cache = Fpc_svc.Image_cache.create () in
  let warm, _ =
    Fpc_svc.Pool.run_jobs ~domains:1 ~cache
      (List.filteri (fun i _ -> i mod reps = 0) specs)
  in
  check_all_ok warm;
  let measure ~domains ~arena_reuse =
    let results, snap = Fpc_svc.Pool.run_jobs ~domains ~cache ~arena_reuse specs in
    check_all_ok results;
    let steady =
      List.fold_left
        (fun acc (r : Fpc_svc.Job.result) ->
          min acc r.Fpc_svc.Job.stats.Fpc_svc.Job.minor_words)
        max_int results
    in
    (snap.Fpc_svc.Metrics.minor_words_per_job, float_of_int steady)
  in
  let open Fpc_util.Tablefmt in
  let tb =
    create ~title:"svc per-job minor allocation (arena vs clone)"
      ~columns:
        [ ("domains", Right); ("mode", Left); ("minor w/job (avg)", Right);
          ("steady-state (min)", Right); ("reduction", Right) ]
  in
  List.iter
    (fun domains ->
      let clone_avg, clone_steady = measure ~domains ~arena_reuse:false in
      let arena_avg, arena_steady = measure ~domains ~arena_reuse:true in
      let reduction =
        if arena_steady > 0.0 then clone_steady /. arena_steady else 0.0
      in
      if not smoke then begin
        let sec = Printf.sprintf "svc/alloc/%dd" domains in
        record sec "minor_words_per_job_clone" clone_avg;
        record sec "minor_words_per_job_arena" arena_avg;
        record sec "steady_minor_words_per_job_clone" clone_steady;
        record sec "steady_minor_words_per_job_arena" arena_steady;
        record sec "steady_reduction_x" reduction
      end;
      add_row tb
        [ cell_int domains; "clone"; cell_float ~decimals:1 clone_avg;
          cell_float ~decimals:0 clone_steady; "" ];
      add_row tb
        [ cell_int domains; "arena"; cell_float ~decimals:1 arena_avg;
          cell_float ~decimals:0 arena_steady;
          cell_ratio ~decimals:1 reduction ];
      if arena_steady > alloc_budget_words then
        failwith
          (Printf.sprintf
             "svc alloc budget exceeded at %d domain(s): steady-state %.0f \
              minor words/job > budget %.0f"
             domains arena_steady alloc_budget_words))
    [ 1; 2 ];
  if not smoke then
    record "svc/alloc" "budget_minor_words_per_job" alloc_budget_words;
  add_note tb
    (Printf.sprintf
       "per-job Gc.minor_words deltas, warmed cache; budget (steady-state \
        arena) = %.0f words/job"
       alloc_budget_words);
  print tb;
  print_newline ()

(* ------------------------------------------------------------------ *)

(* Tracing overhead, off and on.  The off side is the path every
   untraced run takes — instrumentation reduces to one match on
   [State.tracer] per transfer — and is recorded so the cross-PR
   trajectory shows whether carrying the subsystem costs anything
   ([off_drift_pct] against the previous recorded run).  The on side
   attaches a full streaming profile, the worst case [trace=1] pays. *)
let run_trace ?(smoke = false) () =
  let prior = read_prior "BENCH_results.json" in
  let open Fpc_util.Tablefmt in
  let tb =
    create ~title:"tracing overhead (fib, host wall-clock)"
      ~columns:
        [ ("engine", Left); ("off", Right); ("on", Right);
          ("on overhead", Right); ("off drift vs last", Right) ]
  in
  List.iter
    (fun (name, engine) ->
      let image = fib_image engine in
      let off () =
        let st =
          Fpc_interp.Interp.run_program ~image ~engine ~instance:"Main"
            ~proc:"main" ~args:[] ()
        in
        assert (st.Fpc_core.State.status = Fpc_core.State.Halted)
      in
      let on () =
        let p = Fpc_interp.Profiler.create ~capacity:1024 ~image ~engine () in
        let st, _ =
          Fpc_interp.Profiler.run p ~image ~engine ~instance:"Main"
            ~proc:"main" ~args:[]
        in
        assert (st.Fpc_core.State.status = Fpc_core.State.Halted)
      in
      let bench = "trace/fib/" ^ name in
      let off_s =
        if smoke then median_run_s ~samples:3 ~runs:1 off else median_run_s off
      in
      let on_s =
        if smoke then median_run_s ~samples:3 ~runs:1 on else median_run_s on
      in
      let on_pct = (on_s -. off_s) /. off_s *. 100.0 in
      let drift =
        Option.map
          (fun last -> ((off_s *. 1e9) -. last) /. last *. 100.0)
          (prior_value prior bench "off_ns_per_run")
      in
      if not smoke then begin
        record bench "off_ns_per_run" (off_s *. 1e9);
        record bench "on_ns_per_run" (on_s *. 1e9);
        record bench "on_overhead_pct" on_pct;
        Option.iter (record bench "off_drift_pct") drift
      end;
      add_row tb
        [ name;
          Printf.sprintf "%.2f ms" (off_s *. 1e3);
          Printf.sprintf "%.2f ms" (on_s *. 1e3);
          Printf.sprintf "%+.1f%%" on_pct;
          (match drift with
          | Some d -> Printf.sprintf "%+.1f%%" d
          | None -> "(first run)") ])
    (if smoke then [ ("I1", Fpc_core.Engine.i1) ]
     else
       [ ("I1", Fpc_core.Engine.i1); ("I2", Fpc_core.Engine.i2);
         ("I3", Fpc_core.Engine.i3 ()); ("I4", Fpc_core.Engine.i4 ()) ]);
  add_note tb
    "off = run with no tracer installed (the default); on = sink + \
     streaming per-procedure profile";
  print tb;
  print_newline ()

let run_micro () =
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"fpc"
      [
        bench_engine "I1" Fpc_core.Engine.i1;
        bench_engine "I2" Fpc_core.Engine.i2;
        bench_engine "I3" (Fpc_core.Engine.i3 ());
        bench_engine "I4" (Fpc_core.Engine.i4 ());
        bench_tier "I1" Fpc_core.Engine.i1;
        bench_tier "I2" Fpc_core.Engine.i2;
        bench_tier "I3" (Fpc_core.Engine.i3 ());
        bench_tier "I4" (Fpc_core.Engine.i4 ());
        bench_allocator;
        bench_return_stack;
        bench_banks;
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances tests in
  let per_instance = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances per_instance in
  Printf.printf "== micro-benchmarks (host ns/run, monotonic clock) ==\n";
  Hashtbl.iter
    (fun _instance table ->
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
            record ("micro/" ^ name) "ns_per_run" est;
            Printf.printf "  %-28s %12.1f ns\n" name est
          | Some _ | None -> Printf.printf "  %-28s (no estimate)\n" name)
        table)
    results

(* ------------------------------------------------------------------ *)

(* TCP serving throughput and latency through the full lib/net stack:
   framing, admission control, pool execution on worker domains, and
   the ordered writer path back out.  Closed-loop clients, so offered
   load tracks service rate and the percentiles describe the server.
   The request is the call-heavy fib on i2 with a warmed image cache —
   round trips measure serving machinery, not compilation. *)
let run_net ?(smoke = false) ?port ?(host = "127.0.0.1") ?(shutdown = false) ()
    =
  let server, port =
    match port with
    | Some p -> (None, p)
    | None ->
      let s =
        Fpc_net.Server.create ~domains:(Fpc_svc.Pool.recommended_domains ())
          ~max_pending:256 ~times:false ()
      in
      (Some s, Fpc_net.Server.port s)
  in
  let request_line = "prog=fib engine=i2" in
  let conn_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let requests = if smoke then 20 else 300 in
  (* Warm the server's image cache before any measured round trip. *)
  let warm =
    Fpc_net.Loadgen.run ~host ~port ~connections:1 ~requests:3 ~request_line ()
  in
  if warm.Fpc_net.Loadgen.ok <> 3 then
    failwith "net bench: warmup round trips did not all come back ok";
  let open Fpc_util.Tablefmt in
  let tb =
    create
      ~title:
        (Printf.sprintf "net serving latency (fib/i2, %d round trips per conn)"
           requests)
      ~columns:
        [ ("conns", Right); ("answered", Right); ("jobs/sec", Right);
          ("p50", Right); ("p95", Right); ("p99", Right) ]
  in
  List.iter
    (fun connections ->
      let rep =
        Fpc_net.Loadgen.run ~host ~port ~connections ~requests ~request_line ()
      in
      let expected = connections * requests in
      if rep.Fpc_net.Loadgen.ok <> expected then
        failwith
          (Printf.sprintf
             "net bench: %d connections: %d of %d round trips ok (%d shed, %d \
              failed)"
             connections rep.Fpc_net.Loadgen.ok expected
             rep.Fpc_net.Loadgen.shed rep.Fpc_net.Loadgen.failed);
      let pct q =
        float_of_int (Fpc_util.Histogram.percentile rep.Fpc_net.Loadgen.latency_us q)
      in
      if not smoke then begin
        let name = Printf.sprintf "net/latency/%dc" connections in
        record name "jobs_per_sec" rep.Fpc_net.Loadgen.jobs_per_sec;
        record name "p50_us" (pct 50.0);
        record name "p95_us" (pct 95.0);
        record name "p99_us" (pct 99.0)
      end;
      add_row tb
        [ cell_int connections; cell_int rep.Fpc_net.Loadgen.answered;
          cell_float ~decimals:1 rep.Fpc_net.Loadgen.jobs_per_sec;
          Printf.sprintf "%.0fus" (pct 50.0);
          Printf.sprintf "%.0fus" (pct 95.0);
          Printf.sprintf "%.0fus" (pct 99.0) ])
    conn_counts;
  (match server with
  | Some s ->
    Fpc_net.Server.request_drain s;
    ignore (Fpc_net.Server.wait s)
  | None ->
    if shutdown then begin
      let c = Fpc_net.Client.connect ~host ~port () in
      Fpc_net.Client.send_line c "shutdown";
      (match Fpc_net.Client.recv_line c with
      | Some {|{"status":"draining"}|} -> ()
      | Some other ->
        failwith ("net bench: unexpected shutdown response: " ^ other)
      | None -> failwith "net bench: no shutdown acknowledgement");
      Fpc_net.Client.close c
    end);
  add_note tb
    "closed-loop round trips over loopback TCP; in-process server unless --port";
  print tb;
  print_newline ()

(* The high-concurrency ladder.  The server runs as a spawned
   `fpc serve --tcp` subprocess rather than in-process, for two
   reasons: its fd numbers stay small (the select backend caps fds at
   FD_SETSIZE, and the generator's own 1000 client sockets would blow
   through that in a shared process), and /proc/<pid> then describes
   the server alone — the thread and fd tables ARE the claim under
   test, so they must not include the generator's thousand client
   threads. *)

let fpc_binary () =
  (* bench runs from _build/default/bench/main.exe; fpc sits next door. *)
  let dir = Filename.dirname Sys.executable_name in
  let candidate =
    Filename.concat (Filename.dirname dir) (Filename.concat "bin" "fpc.exe")
  in
  if Sys.file_exists candidate then candidate
  else failwith ("net bench: cannot find the fpc binary at " ^ candidate)

let spawn_server ~domains ~max_conns ~max_pending =
  let fpc = fpc_binary () in
  let err_rd, err_wr = Unix.pipe () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process fpc
      [| fpc; "serve"; "--tcp"; "0"; "--no-times";
         "-j"; string_of_int domains;
         "--max-conns"; string_of_int max_conns;
         "--max-pending"; string_of_int max_pending |]
      devnull devnull err_wr
  in
  Unix.close err_wr;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr err_rd in
  (* The server announces "serving on HOST:PORT" on stderr once the
     listener is live; wait for it, then keep draining stderr in the
     background so the drain-time metrics dump cannot wedge the server
     on a full pipe. *)
  let port = ref None in
  (try
     while !port = None do
       let line = input_line ic in
       try
         Scanf.sscanf line "fpc: serving on %s@:%d" (fun _ p ->
             port := Some p)
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> ());
  ignore
    (Thread.create
       (fun () ->
         try
           while true do
             ignore (input_line ic)
           done
         with End_of_file | Sys_error _ -> ())
       ());
  match !port with
  | Some p -> (pid, p)
  | None ->
    ignore (Unix.waitpid [] pid);
    failwith "net bench: spawned server never announced its port"

(* Peak OS-thread and open-fd counts for [pid], sampled from /proc
   every few milliseconds until [stop] flips.  Plain int refs are fine:
   systhreads serialize on the runtime lock. *)
let proc_poller pid stop peak_threads peak_fds =
  let status = Printf.sprintf "/proc/%d/status" pid in
  let fddir = Printf.sprintf "/proc/%d/fd" pid in
  let sample () =
    (try
       let ic = open_in status in
       (try
          while true do
            let line = input_line ic in
            try
              Scanf.sscanf line "Threads: %d" (fun n ->
                  if n > !peak_threads then peak_threads := n)
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
          done
        with End_of_file -> ());
       close_in ic
     with Sys_error _ -> ());
    try
      let n = Array.length (Sys.readdir fddir) in
      if n > !peak_fds then peak_fds := n
    with Sys_error _ -> ()
  in
  while not (Atomic.get stop) do
    sample ();
    Thread.delay 0.01
  done;
  sample ()

let run_net_conns ?(pipeline = 4) ?(record_keys = true) ~conns () =
  let domains = 2 in
  let host = "127.0.0.1" in
  let ladder =
    List.sort_uniq compare
      (conns :: List.filter (fun c -> c < conns) [ 100; 1000 ])
  in
  (* Every connection keeps [pipeline] requests outstanding, and all of
     them must be admitted: a shed round trip is a bench failure. *)
  let max_conns = conns + 100 in
  let max_pending = max 256 (2 * conns * pipeline) in
  let pid, port = spawn_server ~domains ~max_conns ~max_pending in
  let stop = Atomic.make false in
  let peak_threads = ref 0 and peak_fds = ref 0 in
  let poller =
    Thread.create (fun () -> proc_poller pid stop peak_threads peak_fds) ()
  in
  let request_line = "prog=fib engine=i2" in
  let finish () =
    Atomic.set stop true;
    Thread.join poller;
    (try
       let c = Fpc_net.Client.connect ~host ~port () in
       Fpc_net.Client.send_line c "shutdown";
       ignore (Fpc_net.Client.recv_line c);
       Fpc_net.Client.close c
     with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  Fun.protect ~finally:finish @@ fun () ->
  let warm =
    Fpc_net.Loadgen.run ~host ~port ~connections:1 ~requests:3 ~request_line ()
  in
  if warm.Fpc_net.Loadgen.ok <> 3 then
    failwith "net bench: high-concurrency warmup did not come back ok";
  let open Fpc_util.Tablefmt in
  let tb =
    create
      ~title:
        (Printf.sprintf
           "net high-concurrency ladder (fib/i2, pipeline %d, %d-domain \
            spawned server)"
           pipeline domains)
      ~columns:
        [ ("conns", Right); ("req/conn", Right); ("answered", Right);
          ("jobs/sec", Right); ("p50", Right); ("p99", Right);
          ("srv thr", Right); ("srv fds", Right) ]
  in
  List.iter
    (fun connections ->
      peak_threads := 0;
      peak_fds := 0;
      let requests = max 5 (5_000 / connections) in
      let rep =
        Fpc_net.Loadgen.run ~host ~port ~connections ~requests ~pipeline
          ~request_line ()
      in
      let expected = connections * requests in
      if rep.Fpc_net.Loadgen.ok <> expected then
        failwith
          (Printf.sprintf
             "net bench: %d pipelined connections: %d of %d round trips ok \
              (%d shed, %d failed)"
             connections rep.Fpc_net.Loadgen.ok expected
             rep.Fpc_net.Loadgen.shed rep.Fpc_net.Loadgen.failed);
      (* The reactor's whole point: OS threads stay constant while
         connections scale.  The OCaml-level count is domains + 3 (main,
         signal waiter, loop); the runtime adds a tick thread and at
         most one backup thread per domain, hence the bound. *)
      let thread_bound = (2 * domains) + 5 in
      if !peak_threads > thread_bound then
        failwith
          (Printf.sprintf
             "net bench: server used %d OS threads at %d connections \
              (bound %d): the reactor is leaking threads"
             !peak_threads connections thread_bound);
      let pct q =
        float_of_int
          (Fpc_util.Histogram.percentile rep.Fpc_net.Loadgen.latency_us q)
      in
      if record_keys then begin
        let name = Printf.sprintf "net/latency/%dc" connections in
        record name "jobs_per_sec" rep.Fpc_net.Loadgen.jobs_per_sec;
        record name "p50_us" (pct 50.0);
        record name "p99_us" (pct 99.0);
        record name "server_threads" (float_of_int !peak_threads);
        record name "server_fds" (float_of_int !peak_fds)
      end;
      add_row tb
        [ cell_int connections; cell_int requests;
          cell_int rep.Fpc_net.Loadgen.answered;
          cell_float ~decimals:1 rep.Fpc_net.Loadgen.jobs_per_sec;
          Printf.sprintf "%.0fus" (pct 50.0);
          Printf.sprintf "%.0fus" (pct 99.0);
          cell_int !peak_threads; cell_int !peak_fds ])
    ladder;
  add_note tb
    (Printf.sprintf
       "open-loop pipelined clients; srv thr/fds are /proc peaks of the \
        spawned server (thread bound %d enforced)"
       ((2 * domains) + 5));
  print tb;
  print_newline ()

(* ------------------------------------------------------------------ *)

(* Session-scheduler throughput and footprint (the `sched` argument):
   the generated session workload (Fpc_workload.Sessions) streamed
   through the green-thread scheduler at 100 / 1k / 10k sessions on I2,
   run-to-yield, under both execution tiers.  Throughput is host
   wall-clock (compile excluded — the image is built once per scale);
   the footprint keys are simulated meters and therefore exact.  The
   smoke variant runs one tiny scale and records nothing. *)
let run_sched ?(smoke = false) () =
  let engine = Fpc_core.Engine.i2 in
  let scales = if smoke then [ ("64", 64) ] else [ ("100", 100); ("1k", 1_000); ("10k", 10_000) ] in
  let open Fpc_util.Tablefmt in
  let tb =
    create ~title:"sched session throughput (i2, run-to-yield, both tiers)"
      ~columns:
        [ ("sessions", Right); ("interp sess/s", Right); ("tier sess/s", Right);
          ("frame peak", Right); ("LIFO reserve", Right); ("ratio", Right) ]
  in
  List.iter
    (fun (label, total) ->
      let config = Fpc_workload.Sessions.default ~total in
      let convention = Fpc_compiler.Convention.for_engine engine in
      let image =
        match
          Fpc_compiler.Compile.image ~convention
            (Fpc_workload.Sessions.program config)
        with
        | Ok i -> i
        | Error m -> failwith ("sched bench compile: " ^ m)
      in
      let translation = Fpc_tier.Tier.translate image in
      let drive step =
        let im = Fpc_mesa.Image.clone image in
        let st =
          Fpc_interp.Interp.boot ~image:im ~engine ~instance:"Main"
            ~proc:"main" ~args:[] ()
        in
        let stats = Fpc_sched.Sched.run ~step ~fuel:50_000_000 st in
        if st.Fpc_core.State.status <> Fpc_core.State.Halted then
          failwith "sched bench: workload did not halt";
        (st, stats)
      in
      let interp_step n st = Fpc_interp.Interp.run ~max_steps:n st in
      let tier_step n st = Fpc_tier.Tier.run ~max_steps:n translation st in
      let throughput step =
        let s =
          median_run_s ~samples:(if smoke then 3 else 5) ~runs:1 (fun () ->
              ignore (drive step))
        in
        float_of_int total /. s
      in
      let interp_sps = throughput interp_step in
      let tier_sps = throughput tier_step in
      let st, stats = drive interp_step in
      let lifo_reserved =
        st.Fpc_core.State.metrics.Fpc_core.State.peak_live_procs
        * Fpc_workload.Sessions.worst_extent_words config ~image
      in
      let r = Fpc_sched.Sched.report ~lifo_reserved ~stats st in
      if not smoke then begin
        let sec = "sched/sessions/" ^ label in
        record sec "sessions_per_sec_interp" interp_sps;
        record sec "sessions_per_sec_tier" tier_sps;
        record sec "frame_peak_words"
          (float_of_int r.Fpc_sched.Sched.frame_peak_words);
        record sec "lifo_reserved_words"
          (float_of_int r.Fpc_sched.Sched.lifo_reserved_words);
        record sec "footprint_ratio" r.Fpc_sched.Sched.footprint_ratio
      end;
      add_row tb
        [ label; cell_float ~decimals:0 interp_sps;
          cell_float ~decimals:0 tier_sps;
          Printf.sprintf "%dw" r.Fpc_sched.Sched.frame_peak_words;
          Printf.sprintf "%dw" r.Fpc_sched.Sched.lifo_reserved_words;
          Printf.sprintf "%.4f" r.Fpc_sched.Sched.footprint_ratio ])
    scales;
  add_note tb
    "host wall-clock, image compiled once per scale; footprint columns are \
     simulated meters (exact and engine-deterministic)";
  print tb;
  print_newline ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --port N / --host H take a value; pull them out before the
     remaining args are treated as experiment filters. *)
  let extract_opt key args =
    let rec go acc = function
      | [] -> (None, List.rev acc)
      | k :: v :: rest when k = key -> (Some v, List.rev_append acc rest)
      | a :: rest -> go (a :: acc) rest
    in
    go [] args
  in
  let port_s, args = extract_opt "--port" args in
  let host_s, args = extract_opt "--host" args in
  let conns_s, args = extract_opt "--conns" args in
  let pipeline_s, args = extract_opt "--pipeline" args in
  let int_opt flag s =
    match int_of_string_opt s with
    | Some p -> p
    | None -> failwith (Printf.sprintf "bench: %s expects an integer, got %s" flag s)
  in
  let port = Option.map (int_opt "--port") port_s in
  let conns = Option.map (int_opt "--conns") conns_s in
  let pipeline = Option.map (int_opt "--pipeline") pipeline_s in
  let host = Option.value host_s ~default:"127.0.0.1" in
  let shutdown = List.mem "--shutdown" args in
  let json = List.mem "--json" args in
  let smoke = List.mem "--smoke" args in
  let micro = List.mem "micro" args in
  let svc = List.mem "svc" args in
  let trace = List.mem "trace" args in
  let net = List.mem "net" args in
  let sched = List.mem "sched" args in
  let filter =
    List.filter
      (fun a ->
        not
          (List.mem a
             [ "micro"; "svc"; "trace"; "net"; "sched"; "--json"; "--smoke";
               "--shutdown" ]))
      args
  in
  let everything =
    filter = [] && (not micro) && (not svc) && (not trace) && (not net)
    && not sched
  in
  if everything || filter <> [] then run_experiments filter;
  if micro || everything then begin
    run_micro ();
    run_tier_compile ();
    run_tier_calls ~smoke ();
    run_devirt ~smoke ()
  end;
  if svc || everything then begin
    run_svc ~smoke ();
    run_svc_alloc ~smoke ()
  end;
  if trace || everything then run_trace ~smoke ();
  if sched || everything then run_sched ~smoke ();
  (match conns with
  | Some c ->
    (* `bench net --conns N [--pipeline K]`: just the high-concurrency
       ladder, its own spawned server, record nothing beyond stdout
       unless --json asked for the trajectory keys. *)
    run_net_conns ?pipeline ~record_keys:json ~conns:c ()
  | None ->
    if net || everything then begin
      run_net ~smoke ?port ~host ~shutdown ();
      (* The high-concurrency ladder spawns its own server; skip it in
         smoke mode and when the run targets an external --port. *)
      if (not smoke) && port = None then
        run_net_conns ?pipeline ~conns:1000 ()
    end);
  if json then write_json "BENCH_results.json"
