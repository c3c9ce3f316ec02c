(* The host-side benchmark harness: what no other tool measures.  The
   paper's tables are printed by `fpc experiment` and gated by
   test_experiments; serving latency is bench/serve's.  Five layers:

   1. `micro`: Bechamel micro-benchmarks of the simulator itself (host
      wall-clock) — the interpreter and the compiled tier under each
      engine, the AV allocator, the return stack and the bank file —
      plus tier translation time, cross-call fusion on the call-dense
      kernels and link-time devirtualization on the cross-module ones.

   2. `svc`: the whole workload suite x all four engines pushed through
      an Fpc_svc.Pool at 1, 2, 4 and 8 worker domains, reporting jobs/sec
      and the speedup over one domain.  The cache is warmed and the
      domains are spawned before the clock starts; only submit->await is
      timed.  Then per-job minor allocation, arena versus clone, against
      a budget the run enforces.

   3. `trace`: the call-heavy fib run with the XFER tracer absent (the
      null-sink path every ordinary run takes) versus attached with a
      streaming profile, so the cost of the lib/trace subsystem — off and
      on — is a recorded number rather than a claim.

   4. `sched`: the generated session workload streamed through the
      lib/sched green-thread scheduler at 100/1k/10k sessions under both
      execution tiers, recording throughput and the frame-heap-vs-LIFO
      footprint keys.

   5. `net [--conns N] [--pipeline K]`: the reactor's claim.  A spawned
      `fpc serve --tcp` is driven at 100 and 1000 connections (capped at
      N, default 1000) by this process's one thread, while a poller
      samples the server's /proc thread and fd tables.  Every round trip
      must answer ok, and the server's OS threads must stay within the
      reactor's constant bound.

   With no layer argument all five run.  `--smoke` shrinks them to a
   CI sanity pass: tiny job sets, widths 1-2, fewer samples, net capped
   at 100 connections.  `--json` writes every (name, metric, value) the run
   recorded to BENCH_results.json, the perf-trajectory file, replacing
   it whole; it is accepted only on a full run (no layer argument, no
   --smoke, --conns or --pipeline), so the file always comes from one
   run of one build. *)

(* Measurements destined for BENCH_results.json, in recording order. *)
let recorded : (string * string * float) list ref = ref []
let record name metric value = recorded := (name, metric, value) :: !recorded

let write_json path =
  let open Fpc_util.Jsonout in
  let entries =
    List.rev_map
      (fun (name, metric, value) ->
        Obj [ ("name", String name); ("metric", String metric); ("value", Float value) ])
      !recorded
  in
  let oc = open_out path in
  output_string oc (pretty (List entries));
  close_out oc;
  Printf.printf "wrote %d measurements to %s\n" (List.length entries) path

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
            (float_of_int (Fpc_tier.Tier.procs_translated tier));
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
          let name = Printf.sprintf "micro/fpc/devirt/%s/%s" prog ename in
          record name "sites_rewritten" (float_of_int rewritten);
          record name "mem_refs_base" (float_of_int refs_b);
          record name "mem_refs_devirt" (float_of_int refs_d);
          record name "cycles_base" (float_of_int cycles_b);
          record name "cycles_devirt" (float_of_int cycles_d);
          record name "refs_saved_pct" (100.0 *. saved);
          record name "interp_ns_per_run_base" (host_b *. 1e9);
          record name "interp_ns_per_run_devirt" (host_d *. 1e9);
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

   Recorded as the `svc/scaling` section.  Both execution tiers run the same sweep.  The historical
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
          record (Printf.sprintf "%s/%dd" key_prefix domains) "jobs_per_sec" jps;
          record (Printf.sprintf "%s/%dd" key_prefix domains) "speedup"
            (jps /. !base);
          add_row tb
            [ tier_label; cell_int domains; cell_int njobs;
              Printf.sprintf "%.3fs" wall; cell_float ~decimals:1 jps;
              cell_ratio ~decimals:2 (jps /. !base);
              cell_pct
                (Fpc_svc.Image_cache.hit_rate metrics.Fpc_svc.Metrics.cache) ])
        widths)
    [ ("interp", Fpc_svc.Job.Interp, "svc/scaling");
      ("compiled", Fpc_svc.Job.Compiled, "svc/scaling/tier") ];
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
let session_alloc_budget_words = 4096.0

(* Session jobs take the scheduler and every process operation — FORK,
   YIELD, coroutine XFER, process end — which the suite programs barely
   touch.  A small session shape per engine, on one domain's arena after
   a warm-up job, under its own budget: the worst job must stay within
   it. *)
let run_svc_session_alloc ~check_all_ok ~cache =
  let reps = 4 and total = 100 in
  let session engine =
    Fpc_svc.Job.spec ~engine
      (Fpc_svc.Job.Sessions
         { (Fpc_workload.Sessions.default ~total) with Fpc_workload.Sessions.window = 8 })
  in
  let open Fpc_util.Tablefmt in
  let tb =
    create
      ~title:(Printf.sprintf "svc per-job minor allocation, sessions=%d window=8" total)
      ~columns:[ ("engine", Left); ("steady-state (max)", Right) ]
  in
  List.iter
    (fun engine ->
      let results, _ =
        Fpc_svc.Pool.run_jobs ~domains:1 ~cache ~arena_reuse:true
          (List.init (reps + 1) (fun _ -> session engine))
      in
      check_all_ok results;
      let steady =
        List.fold_left
          (fun acc (r : Fpc_svc.Job.result) ->
            max acc r.Fpc_svc.Job.stats.Fpc_svc.Job.minor_words)
          0 (List.tl results)
      in
      record "svc/alloc/sessions" ("steady_minor_words_per_job_" ^ engine)
        (float_of_int steady);
      add_row tb [ engine; cell_int steady ];
      if float_of_int steady > session_alloc_budget_words then
        failwith
          (Printf.sprintf
             "svc session alloc budget exceeded on %s: %d minor words/job > \
              budget %.0f"
             engine steady session_alloc_budget_words))
    [ "i1"; "i2"; "i3"; "i4" ];
  record "svc/alloc/sessions" "budget_minor_words_per_job" session_alloc_budget_words;
  add_note tb
    (Printf.sprintf
       "worst of %d arena-hit jobs after one warm-up job; budget = %.0f \
        words/job"
       reps session_alloc_budget_words);
  print tb;
  print_newline ()

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
      let sec = Printf.sprintf "svc/alloc/%dd" domains in
      record sec "minor_words_per_job_clone" clone_avg;
      record sec "minor_words_per_job_arena" arena_avg;
      record sec "steady_minor_words_per_job_clone" clone_steady;
      record sec "steady_minor_words_per_job_arena" arena_steady;
      record sec "steady_reduction_x" reduction;
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
  record "svc/alloc" "budget_minor_words_per_job" alloc_budget_words;
  add_note tb
    (Printf.sprintf
       "per-job Gc.minor_words deltas, warmed cache; budget (steady-state \
        arena) = %.0f words/job"
       alloc_budget_words);
  print tb;
  print_newline ();
  run_svc_session_alloc ~check_all_ok ~cache

(* ------------------------------------------------------------------ *)

(* Tracing overhead, off and on.  The off side is the path every
   untraced run takes — instrumentation reduces to one match on
   [State.tracer] per transfer.  The on side attaches a full streaming
   profile, the worst case [trace=1] pays. *)
let run_trace ?(smoke = false) () =
  let open Fpc_util.Tablefmt in
  let tb =
    create ~title:"tracing overhead (fib, host wall-clock)"
      ~columns:[ ("engine", Left); ("off", Right); ("on", Right); ("on overhead", Right) ]
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
      record bench "off_ns_per_run" (off_s *. 1e9);
      record bench "on_ns_per_run" (on_s *. 1e9);
      record bench "on_overhead_pct" on_pct;
      add_row tb
        [ name;
          Printf.sprintf "%.2f ms" (off_s *. 1e3);
          Printf.sprintf "%.2f ms" (on_s *. 1e3);
          Printf.sprintf "%+.1f%%" on_pct ])
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

(* The high-concurrency ladder: the reactor's claim that a server's OS
   threads stay constant while its connections scale.  The server runs
   as a spawned `fpc serve --tcp` subprocess rather than in-process, for
   two reasons: its fd numbers stay small (the select backend caps fds
   at FD_SETSIZE, and the bench's own 1000 client sockets would blow
   through that in a shared process), and /proc/<pid> then describes the
   server alone — the thread and fd tables ARE the claim under test. *)

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

(* The "Threads:" line of a /proc status file; 0 if it cannot be read. *)
let proc_threads status =
  match open_in status with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line -> (
        try Scanf.sscanf line "Threads: %d" Fun.id
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
    in
    let n = scan () in
    close_in ic;
    n

let proc_fds pid =
  try Array.length (Sys.readdir (Printf.sprintf "/proc/%d/fd" pid))
  with Sys_error _ -> 0

(* Peak OS-thread and open-fd counts for [pid], sampled from /proc
   every few milliseconds until [stop] flips.  Plain int refs are fine:
   systhreads serialize on the runtime lock. *)
let proc_poller pid stop peak_threads peak_fds =
  let status = Printf.sprintf "/proc/%d/status" pid in
  let sample () =
    peak_threads := max !peak_threads (proc_threads status);
    peak_fds := max !peak_fds (proc_fds pid)
  in
  while not (Atomic.get stop) do
    sample ();
    Thread.delay 0.01
  done;
  sample ()

(* One rung, driven from this thread over [Fpc_net.Client]: open
   [connections] connections, then run [rounds] rounds, each writing
   [pipeline] request lines on every connection (one write per
   connection) and then reading [pipeline] replies from each.  The
   server answers a connection's jobs in request order, and a reply is
   ok iff it carries "status":"ok".  Returns (ok, failed, shed, wall);
   the wall clock covers the rounds, not the connects. *)
let drive_rung ~host ~port ~connections ~rounds ~pipeline ~request_line =
  let clients =
    Array.init connections (fun _ -> Fpc_net.Client.connect ~host ~port ())
  in
  let batch = String.concat "\n" (List.init pipeline (fun _ -> request_line)) in
  let ok = ref 0 and failed = ref 0 and shed = ref 0 in
  let has sub line =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    go 0
  in
  let t0 = Fpc_util.Clock.now () in
  for _ = 1 to rounds do
    Array.iter (fun c -> Fpc_net.Client.send_line c batch) clients;
    Array.iter
      (fun c ->
        for _ = 1 to pipeline do
          match Fpc_net.Client.recv_line c with
          | Some line when has {|"status":"ok"|} line -> incr ok
          | Some line when has {|"status":"shed"|} line -> incr shed
          | Some _ -> incr failed
          | None -> failwith "net bench: the server closed a connection"
        done)
      clients
  done;
  let wall = Fpc_util.Clock.now () -. t0 in
  Array.iter Fpc_net.Client.close clients;
  (!ok, !failed, !shed, wall)

let run_net_conns ?(pipeline = 4) ~conns () =
  if conns < 1 || pipeline < 1 then
    failwith "net bench: --conns and --pipeline must be positive";
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
  (* A rung starts once the server has closed the previous rung's
     connections: until then they count against its connection limit
     and its select set. *)
  let idle_fds = proc_fds pid in
  let await_idle () =
    let deadline = Fpc_util.Clock.now () +. 10.0 in
    while proc_fds pid > idle_fds do
      if Fpc_util.Clock.now () > deadline then
        failwith "net bench: the server kept the previous rung's connections";
      Thread.delay 0.01
    done
  in
  (* Warm the server's image cache before any measured round trip. *)
  (match
     drive_rung ~host ~port ~connections:1 ~rounds:3 ~pipeline:1 ~request_line
   with
  | 3, _, _, _ -> ()
  | _ -> failwith "net bench: warmup round trips did not all come back ok");
  let open Fpc_util.Tablefmt in
  let tb =
    create
      ~title:
        (Printf.sprintf
           "net high-concurrency ladder (fib/i2, pipeline %d, %d-domain \
            spawned server)"
           pipeline domains)
      ~columns:
        [ ("conns", Right); ("rounds", Right); ("ok", Right);
          ("jobs/sec", Right); ("srv thr", Right); ("srv fds", Right);
          ("bench thr", Right) ]
  in
  (* The reactor's whole point: OS threads stay constant while
     connections scale.  The OCaml-level count is domains + 3 (main,
     signal waiter, loop); the runtime adds a tick thread and at most one
     backup thread per domain, hence the bound. *)
  let thread_bound = (2 * domains) + 5 in
  List.iter
    (fun connections ->
      await_idle ();
      peak_threads := 0;
      peak_fds := 0;
      let rounds = max 5 (5_000 / connections) in
      let ok, failed, shed, wall =
        drive_rung ~host ~port ~connections ~rounds ~pipeline ~request_line
      in
      let bench_threads = proc_threads "/proc/self/status" in
      let expected = connections * rounds * pipeline in
      if ok <> expected then
        failwith
          (Printf.sprintf
             "net bench: %d pipelined connections: %d of %d round trips ok \
              (%d shed, %d failed)"
             connections ok expected shed failed);
      if !peak_threads > thread_bound then
        failwith
          (Printf.sprintf
             "net bench: server used %d OS threads at %d connections \
              (bound %d): the reactor is leaking threads"
             !peak_threads connections thread_bound);
      let jps = float_of_int ok /. wall in
      let name = Printf.sprintf "net/conns/%dc" connections in
      record name "jobs_per_sec" jps;
      record name "server_threads" (float_of_int !peak_threads);
      record name "server_fds" (float_of_int !peak_fds);
      add_row tb
        [ cell_int connections; cell_int rounds; cell_int ok;
          cell_float ~decimals:1 jps; cell_int !peak_threads;
          cell_int !peak_fds; cell_int bench_threads ])
    ladder;
  add_note tb
    (Printf.sprintf
       "one driving thread; srv thr/fds are /proc peaks of the spawned \
        server (thread bound %d enforced); bench thr is this process's"
       thread_bound);
  print tb;
  print_newline ()

(* ------------------------------------------------------------------ *)

(* Session-scheduler throughput and footprint (the `sched` argument):
   the generated session workload (Fpc_workload.Sessions) streamed
   through the green-thread scheduler at 100 / 1k / 10k sessions on I2,
   run-to-yield, under both execution tiers.  Throughput is host
   wall-clock (compile excluded — the image is built once per scale);
   the footprint keys are simulated meters and therefore exact.  The
   smoke variant runs one tiny scale. *)
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
      let sec = "sched/sessions/" ^ label in
      record sec "sessions_per_sec_interp" interp_sps;
      record sec "sessions_per_sec_tier" tier_sps;
      record sec "frame_peak_words"
        (float_of_int r.Fpc_sched.Sched.frame_peak_words);
      record sec "lifo_reserved_words"
        (float_of_int r.Fpc_sched.Sched.lifo_reserved_words);
      record sec "footprint_ratio" r.Fpc_sched.Sched.footprint_ratio;
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

let usage =
  "usage: main.exe [micro] [svc] [trace] [sched] [net] [--smoke] [--conns N] \
   [--pipeline K] [--json]"

let () =
  let fail msg =
    prerr_endline ("bench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail (Printf.sprintf "%s expects an integer, got %s" flag v)
  in
  let layers = ref [] and smoke = ref false and json = ref false in
  let conns = ref None and pipeline = ref None in
  let rec parse = function
    | [] -> ()
    | ("micro" | "svc" | "trace" | "sched" | "net") as l :: rest ->
      layers := l :: !layers;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--conns" :: v :: rest ->
      conns := Some (int_arg "--conns" v);
      parse rest
    | "--pipeline" :: v :: rest ->
      pipeline := Some (int_arg "--pipeline" v);
      parse rest
    | a :: _ -> fail ("unknown argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let smoke = !smoke in
  let full = !layers = [] in
  if !json && not (full && (not smoke) && !conns = None && !pipeline = None)
  then
    fail
      "--json replaces BENCH_results.json whole, so it takes a full run: no \
       layer argument, --smoke, --conns or --pipeline";
  let wants l = full || List.mem l !layers in
  if wants "micro" then begin
    run_micro ();
    run_tier_compile ();
    run_tier_calls ~smoke ();
    run_devirt ~smoke ()
  end;
  if wants "svc" then begin
    run_svc ~smoke ();
    run_svc_alloc ~smoke ()
  end;
  if wants "trace" then run_trace ~smoke ();
  if wants "sched" then run_sched ~smoke ();
  if wants "net" then
    run_net_conns ?pipeline:!pipeline
      ~conns:(Option.value !conns ~default:(if smoke then 100 else 1000))
      ();
  if !json then write_json "BENCH_results.json"
