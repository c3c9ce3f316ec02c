(* Tests for the execution service: the worker pool, the compilation
   cache, and the job/request plumbing.

   The load-bearing properties:
   - determinism: simulated results depend only on the spec, never on the
     domain count or cache state;
   - the cache actually short-circuits compilation;
   - poisoned jobs (parse errors, runaway loops) fail as results, not as
     pool casualties. *)

open Fpc_svc

let suite_specs () =
  List.concat_map
    (fun name ->
      List.map (fun engine -> Job.spec ~engine (Job.Suite name))
        [ "i1"; "i2"; "i3"; "i4" ])
    Fpc_workload.Programs.names

(* The deterministic projection of a result: everything except host
   timings and the cache bit. *)
let fingerprint (r : Job.result) =
  ( r.id,
    Job.result_line r,
    r.stats.Job.instructions,
    r.stats.Job.cycles,
    r.stats.Job.mem_refs )

let test_determinism_across_domain_counts () =
  let specs = suite_specs () in
  let r1, m1 = Pool.run_jobs ~domains:1 specs in
  let r4, m4 = Pool.run_jobs ~domains:4 specs in
  let c1 = m1.Metrics.counts and c4 = m4.Metrics.counts in
  Alcotest.(check int) "all jobs ran (1 domain)" (List.length specs) c1.jobs;
  Alcotest.(check int) "all jobs ran (4 domains)" (List.length specs) c4.jobs;
  Alcotest.(check int) "none failed" 0 (c1.failed + c4.failed);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d identical at 1 and 4 domains" a.Job.id)
        true
        (fingerprint a = fingerprint b))
    r1 r4

let test_results_in_submission_order () =
  let specs = suite_specs () in
  let results, _ = Pool.run_jobs ~domains:4 specs in
  List.iteri
    (fun i (r : Job.result) -> Alcotest.(check int) "id order" i r.id)
    results

let test_cache_hit_skips_compilation () =
  let cache = Image_cache.create () in
  let spec = Job.spec ~engine:"i2" (Job.Suite "fib") in
  let pool = Pool.create ~domains:1 ~cache () in
  ignore (Pool.submit pool spec);
  ignore (Pool.submit pool spec);
  let results = Pool.await pool in
  Pool.shutdown pool;
  match results with
  | [ first; second ] ->
    Alcotest.(check bool) "first is a miss" false first.Job.stats.Job.cache_hit;
    Alcotest.(check bool) "first paid the compiler" true
      (first.Job.stats.Job.compile_s > 0.0);
    Alcotest.(check bool) "second is a hit" true second.Job.stats.Job.cache_hit;
    Alcotest.(check (float 0.0)) "hit compiles for free" 0.0
      second.Job.stats.Job.compile_s;
    Alcotest.(check bool) "identical simulated outcome" true
      (Job.outcome_equal first.Job.outcome second.Job.outcome);
    let s = Image_cache.stats cache in
    Alcotest.(check int) "one hit" 1 s.Image_cache.hits;
    Alcotest.(check int) "one miss" 1 s.Image_cache.misses;
    Alcotest.(check int) "one entry" 1 s.Image_cache.entries
  | rs -> Alcotest.failf "expected 2 results, got %d" (List.length rs)

let test_cache_shared_across_engines_of_one_convention () =
  (* I1 and I2 compile under the same (external) convention, so they share
     a cache entry; I3 (direct) and I4 (banked) each need their own. *)
  let cache = Image_cache.create () in
  let specs =
    List.map (fun engine -> Job.spec ~engine (Job.Suite "fib"))
      [ "i1"; "i2"; "i3"; "i4" ]
  in
  let results, _ = Pool.run_jobs ~domains:1 ~cache specs in
  Alcotest.(check int) "all ok" 4 (List.length results);
  let s = Image_cache.stats cache in
  Alcotest.(check int) "three distinct images" 3 s.Image_cache.entries;
  Alcotest.(check int) "i2 reused i1's image" 1 s.Image_cache.hits

let infinite_loop_src =
  {|
MODULE Main;
PROC main() =
  VAR i: INT := 0;
  WHILE 0 < 1 DO
    i := i + 1;
  END;
END;
END;
|}

let test_poisoned_jobs_do_not_kill_the_pool () =
  let pool = Pool.create ~domains:2 () in
  let bad = Pool.submit pool (Job.spec (Job.Inline "MODULE Main; PROC")) in
  let runaway =
    Pool.submit pool (Job.spec ~fuel:50_000 (Job.Inline infinite_loop_src))
  in
  let good = Pool.submit pool (Job.spec (Job.Suite "fib")) in
  let results = Pool.await pool in
  let find id = List.find (fun (r : Job.result) -> r.id = id) results in
  (match (find bad).Job.outcome with
  | Job.Failed (Job.Compile_error, _) -> ()
  | _ ->
    Alcotest.failf "bad source: expected compile error, got %s"
      (Job.result_line (find bad)));
  (match (find runaway).Job.outcome with
  | Job.Failed (Job.Fuel_exhausted, _) -> ()
  | _ -> Alcotest.fail "runaway loop should exhaust its fuel");
  (match (find good).Job.outcome with
  | Job.Output [ 377 ] -> ()
  | _ -> Alcotest.fail "good job should still produce fib's output");
  (* the pool is still alive and serving after the failures *)
  let again = Pool.submit pool (Job.spec (Job.Suite "hanoi")) in
  let results = Pool.await pool in
  (match (List.find (fun (r : Job.result) -> r.id = again) results).Job.outcome with
  | Job.Output [ 127 ] -> ()
  | _ -> Alcotest.fail "pool must keep serving after poisoned jobs");
  let m = Pool.metrics pool in
  Pool.shutdown pool;
  Alcotest.(check int) "four jobs total" 4 m.Metrics.counts.jobs;
  Alcotest.(check int) "two failed" 2 m.Metrics.counts.failed;
  Alcotest.(check int) "one by fuel" 1 m.Metrics.counts.fuel_exhausted

(* Soak: several producer domains hammer submit while the main domain
   polls concurrently, at every pool width.  The properties under load:
   no deadlock, every submitted id comes back exactly once across the
   interleaved poll/await calls, every poll batch respects the
   documented id-sorted order, and the shard-merged metrics agree with
   the results actually returned. *)
let test_soak_concurrent_producers () =
  let engines = [| "i1"; "i2"; "i3"; "i4" |] in
  let mix rng =
    (* mostly healthy jobs, seasoned with failures of both kinds *)
    match Random.State.int rng 10 with
    | 0 -> Job.spec (Job.Inline "MODULE Main; PROC")  (* compile error *)
    | 1 -> Job.spec ~fuel:10_000 (Job.Inline infinite_loop_src)
    | n ->
      let prog = [| "fib"; "hanoi"; "bsearch"; "leafcalls" |].(n mod 4) in
      Job.spec ~engine:engines.(n mod 4) (Job.Suite prog)
  in
  List.iter
    (fun domains ->
      let rng = Random.State.make [| 0x50AC; domains |] in
      let producers = 3 and per_producer = 10 in
      let specs =
        Array.init producers (fun _ ->
            List.init per_producer (fun _ -> mix rng))
      in
      let pool = Pool.create ~domains () in
      let handles =
        Array.map
          (fun specs ->
            Domain.spawn (fun () ->
                List.map (fun spec -> Pool.submit pool spec) specs))
          specs
      in
      (* poll while the producers are still submitting *)
      let polled = ref [] in
      let check_batch batch =
        let ids = List.map (fun (r : Job.result) -> r.Job.id) batch in
        Alcotest.(check (list int))
          "poll batch sorted by id" (List.sort compare ids) ids
      in
      for _ = 1 to 20 do
        let batch = Pool.poll pool in
        check_batch batch;
        polled := !polled @ batch;
        Domain.cpu_relax ()
      done;
      let submitted =
        Array.fold_left (fun acc h -> acc @ Domain.join h) [] handles
      in
      (* all submissions are in; drain the rest *)
      let rec drain acc =
        let batch = Pool.await pool in
        check_batch batch;
        let acc = acc @ batch in
        if Pool.pending pool = 0 then acc else drain acc
      in
      let results = !polled @ drain [] in
      let total = producers * per_producer in
      Alcotest.(check int)
        (Printf.sprintf "%dd: all ids submitted" domains)
        total (List.length submitted);
      let got = List.map (fun (r : Job.result) -> r.Job.id) results in
      Alcotest.(check (list int))
        (Printf.sprintf "%dd: every id exactly once" domains)
        (List.sort compare submitted)
        (List.sort compare got);
      (* metrics (merged from the per-worker shards) must agree with the
         results actually handed back *)
      let m = Pool.metrics pool in
      Pool.shutdown pool;
      let failed =
        List.length
          (List.filter
             (fun (r : Job.result) ->
               match r.Job.outcome with Job.Failed _ -> true | _ -> false)
             results)
      in
      Alcotest.(check int)
        (Printf.sprintf "%dd: metrics jobs" domains)
        total m.Metrics.counts.jobs;
      Alcotest.(check int)
        (Printf.sprintf "%dd: metrics failed" domains)
        failed m.Metrics.counts.failed;
      Alcotest.(check int)
        (Printf.sprintf "%dd: metrics succeeded" domains)
        (total - failed) m.Metrics.counts.succeeded;
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
      Alcotest.(check int)
        (Printf.sprintf "%dd: metrics instructions" domains)
        (sum (fun (r : Job.result) -> r.Job.stats.Job.instructions))
        m.Metrics.counts.instructions;
      Alcotest.(check int)
        (Printf.sprintf "%dd: metrics cycles" domains)
        (sum (fun (r : Job.result) -> r.Job.stats.Job.cycles))
        m.Metrics.counts.cycles)
    [ 1; 2; 4; 8 ]

let test_unknown_engine_and_program_degrade () =
  let results, m =
    Pool.run_jobs ~domains:1
      [
        Job.spec ~engine:"i9" (Job.Suite "fib");
        Job.spec (Job.Suite "no_such_program");
      ]
  in
  List.iter
    (fun (r : Job.result) ->
      match r.Job.outcome with
      | Job.Failed (Job.Bad_request, _) -> ()
      | _ -> Alcotest.fail "expected bad-request failures")
    results;
  Alcotest.(check int) "both failed" 2 m.Metrics.counts.failed

let test_request_line_roundtrip () =
  let specs =
    [
      Job.spec ~engine:"i3" ~fuel:1234 (Job.Suite "fib");
      Job.spec ~trace:true (Job.Suite "hanoi");
      Job.spec ~tier:Job.Compiled (Job.Suite "sieve");
      Job.spec ~tier:Job.Interp ~engine:"i4" (Job.Suite "fib");
      Job.spec (Job.Inline "MODULE Main;\nPROC main() =\n  OUTPUT 1;\nEND;\nEND;\n");
    ]
  in
  List.iter
    (fun spec ->
      match Job.parse_request (Job.request_of_spec spec) with
      | Ok parsed ->
        Alcotest.(check bool) "round-trips" true (parsed = spec)
      | Error m -> Alcotest.fail m)
    specs;
  (match Job.parse_request "fuel=10" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a request without a source must be rejected");
  (match Job.parse_request "prog=fib fuel=banana" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric fuel must be rejected");
  (match Job.parse_request "prog=fib tier=compiled" with
  | Ok s -> Alcotest.(check bool) "tier parses" true (s.Job.tier = Job.Compiled)
  | Error m -> Alcotest.fail m);
  match Job.parse_request "prog=fib tier=jit" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tier must be rejected"

(* Random specs (all engines, suite and inline sources with every escape
   class, optional fuel/trace/deadline) must render to a request line
   that parses back to exactly the same spec. *)
let request_roundtrip_prop =
  let spec_gen =
    let open QCheck.Gen in
    let source =
      oneof
        [
          map (fun n -> Job.Suite n) (oneofl Fpc_workload.Programs.names);
          map
            (fun s -> Job.Inline s)
            (string_size ~gen:
               (oneofl
                  [ 'a'; 'Z'; '0'; ' '; '\n'; '\t'; '\\'; '='; '#'; '"' ])
               (int_range 0 40));
        ]
    in
    let* source = source in
    let* engine = oneofl [ "i1"; "i2"; "i3"; "i4" ] in
    let* tier = oneofl [ Job.Interp; Job.Compiled; Job.Auto ] in
    let* fuel = int_range 1 10_000_000 in
    let* trace = bool in
    let* deadline_ms = opt (int_range 1 100_000) in
    return (Job.spec ~engine ~tier ~fuel ~trace ?deadline_ms source)
  in
  let print_spec spec = Job.request_of_spec spec in
  QCheck.Test.make ~count:500 ~name:"request line round-trips any spec"
    (QCheck.make ~print:print_spec spec_gen)
    (fun spec ->
      match Job.parse_request (Job.request_of_spec spec) with
      | Ok parsed -> parsed = spec
      | Error m -> QCheck.Test.fail_report m)

(* A junk tail — any non-empty token that is not a known key=value —
   must turn the whole line into a clean parse error, never an
   exception and never a silently-accepted spec. *)
let request_junk_tail_prop =
  let gen =
    let open QCheck.Gen in
    let* prog = oneofl Fpc_workload.Programs.names in
    let* junk =
      string_size ~gen:(oneofl [ 'z'; 'q'; '9'; '='; '-'; '_' ]) (int_range 0 12)
    in
    return (Printf.sprintf "prog=%s zz%s" prog junk)
  in
  QCheck.Test.make ~count:200 ~name:"junk tails are rejected, not crashed on"
    (QCheck.make ~print:(fun l -> l) gen)
    (fun line ->
      match Job.parse_request line with
      | Error _ -> true
      | Ok _ -> QCheck.Test.fail_report ("accepted: " ^ line))

(* Push-mode pool: with [deliver], results bypass the shards (await
   returns nothing) and every submitted job is handed over exactly
   once, concurrently, before drain returns. *)
let test_deliver_mode () =
  let delivered = ref [] in
  let dm = Mutex.create () in
  let deliver (r : Job.result) =
    Mutex.lock dm;
    delivered := r :: !delivered;
    Mutex.unlock dm
  in
  let pool = Pool.create ~domains:2 ~deliver () in
  let n = 20 in
  for _ = 1 to n do
    ignore (Pool.submit pool (Job.spec (Job.Suite "fib")))
  done;
  Pool.drain pool;
  let ids =
    List.sort compare (List.map (fun (r : Job.result) -> r.Job.id) !delivered)
  in
  Alcotest.(check (list int)) "every id delivered exactly once"
    (List.init n Fun.id) ids;
  Alcotest.(check (list int)) "await returns nothing in push mode" []
    (List.map (fun (r : Job.result) -> r.Job.id) (Pool.await pool));
  let metrics = Pool.metrics pool in
  Pool.shutdown pool;
  Alcotest.(check int) "metrics still count delivered jobs" n
    metrics.Metrics.counts.jobs

(* A wall-clock deadline fails the job (not the worker): the runaway
   loop comes back Deadline_exceeded promptly despite a huge fuel
   budget, and the pool keeps executing other jobs. *)
let test_deadline_exceeded () =
  let pool = Pool.create ~domains:1 () in
  let hung =
    Pool.submit pool
      (Job.spec ~fuel:2_000_000_000 ~deadline_ms:100 (Job.Inline infinite_loop_src))
  in
  let good = Pool.submit pool (Job.spec (Job.Suite "fib")) in
  let t0 = Unix.gettimeofday () in
  let results = Pool.await pool in
  let waited = Unix.gettimeofday () -. t0 in
  let metrics = Pool.metrics pool in
  Pool.shutdown pool;
  let find id = List.find (fun (r : Job.result) -> r.id = id) results in
  (match (find hung).Job.outcome with
  | Job.Failed (Job.Deadline_exceeded, _) -> ()
  | _ -> Alcotest.fail "runaway job should fail with Deadline_exceeded");
  (match (find good).Job.outcome with
  | Job.Output _ -> ()
  | Job.Failed (_, m) -> Alcotest.failf "good job failed: %s" m);
  Alcotest.(check bool) "deadline fired promptly, not at fuel exhaustion" true
    (waited < 30.0);
  Alcotest.(check int) "metrics counted the deadline" 1
    metrics.Metrics.counts.deadline_exceeded;
  (* a job that finishes in time keeps its deadline without penalty *)
  let ok, _ =
    Pool.run_jobs ~domains:1 [ Job.spec ~deadline_ms:60_000 (Job.Suite "fib") ]
  in
  match (List.hd ok).Job.outcome with
  | Job.Output _ -> ()
  | Job.Failed (_, m) -> Alcotest.failf "deadlined-but-fast job failed: %s" m

(* The pool merges its counts from per-worker shards, and a count that
   [Metrics.merge_into] leaves out reads 0 however many jobs ran.  So on
   a mix that moves every count (traced, devirt on and off, compiled,
   fuel-exhausted, deadline-failed), the pool's snapshot must equal the
   unmerged fold of its own results, at 1 domain and at 4: every count
   but the host times (floats) and the arena readings, which no result
   carries.  The counts that do not depend on scheduling must also agree
   across the two widths. *)
let test_merged_counts_match_results () =
  let specs =
    [
      Job.spec ~trace:true (Job.Suite "fib");
      Job.spec ~devirt:true (Job.Suite "callchain");
      Job.spec ~devirt:false ~engine:"i4" (Job.Suite "callchain");
      Job.spec ~tier:Job.Compiled ~engine:"i3" (Job.Suite "hanoi");
      Job.spec ~tier:Job.Interp (Job.Suite "hanoi");
      Job.spec ~fuel:10_000 (Job.Inline infinite_loop_src);
      (* fails at its first slice boundary, a fixed step count *)
      Job.spec ~deadline_ms:0 ~fuel:2_000_000_000 (Job.Inline infinite_loop_src);
    ]
  in
  let rec strip drop (j : Fpc_util.Jsonout.t) : Fpc_util.Jsonout.t =
    match j with
    | Float _ -> Null
    | Obj fields ->
      Obj
        (List.filter_map
           (fun (k, v) -> if List.mem k drop then None else Some (k, strip drop v))
           fields)
    | List l -> List (List.map (strip drop) l)
    | v -> v
  in
  let show drop m = Fpc_util.Jsonout.to_string (strip drop (Metrics.to_json m)) in
  let run domains =
    let results, m = Pool.run_jobs ~domains specs in
    let folded = Metrics.create ~domains in
    List.iter (Metrics.record folded) results;
    let reference = Metrics.snapshot folded ~wall_s:0.0 ~cache:m.Metrics.cache in
    Alcotest.(check string)
      (Printf.sprintf "%d-domain pool counts = the fold of its results" domains)
      (show [ "arena" ] reference) (show [ "arena" ] m);
    let a = m.Metrics.counts.arena in
    Alcotest.(check int)
      (Printf.sprintf "%d-domain arena: one checkout per job" domains)
      (List.length specs) (a.Arena.hits + a.Arena.misses);
    m
  in
  let m1 = run 1 and m4 = run 4 in
  let c = m1.Metrics.counts in
  List.iter
    (fun (what, n) -> Alcotest.(check bool) (what ^ " moved") true (n > 0))
    [
      ("traced jobs", c.traced_jobs);
      ("fuel-exhausted", c.fuel_exhausted);
      ("deadline-exceeded", c.deadline_exceeded);
      ("devirt sites", c.devirt_sites);
      ("translations", c.translation_hits + c.translation_misses);
      ("fused calls", c.fused_calls);
      ("minor words", c.minor_words);
    ];
  (* per-worker arenas, which worker compiled or translated first and
     GC traffic vary with the width; nothing else may *)
  let scheduling = [ "domains"; "arena"; "cache"; "translation"; "minor_words" ] in
  Alcotest.(check string) "deterministic counts equal at 1 and 4 domains"
    (show scheduling m1) (show scheduling m4)

let test_lru_eviction () =
  let cache = Image_cache.create ~capacity:2 () in
  let conv = Fpc_compiler.Convention.external_ in
  let src n =
    Printf.sprintf "MODULE Main;\nPROC main() =\n  OUTPUT %d;\nEND;\nEND;\n" n
  in
  let get n =
    match Image_cache.find_or_compile cache ~convention:conv ~source:(src n) with
    | Ok (_, hit, _) -> hit
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "1 cold" false (get 1);
  Alcotest.(check bool) "2 cold" false (get 2);
  Alcotest.(check bool) "1 warm" true (get 1);
  (* inserting 3 must evict 2 (least recently used), not 1 *)
  Alcotest.(check bool) "3 cold" false (get 3);
  Alcotest.(check bool) "1 still warm" true (get 1);
  Alcotest.(check bool) "2 evicted" false (get 2);
  let s = Image_cache.stats cache in
  Alcotest.(check int) "two evictions" 2 s.Image_cache.evictions;
  Alcotest.(check int) "bounded" 2 s.Image_cache.entries

let test_metrics_json_shape () =
  let _, m = Pool.run_jobs ~domains:1 [ Job.spec (Job.Suite "fib") ] in
  let json = Fpc_util.Jsonout.to_string (Metrics.to_json m) in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec at i =
      i + n <= h && (String.sub json i n = needle || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains needle))
    [
      "\"jobs\":1"; "\"succeeded\":1"; "\"domains\":1"; "\"cache\"";
      "\"arena\":{\"hits\":0,\"misses\":1,\"evictions\":0,\"images\":1,\"states\":1,";
      "\"store_bytes\":"; "\"pages_blitted\":";
    ]

let test_traced_job () =
  let results, m =
    Pool.run_jobs ~domains:2
      [
        Job.spec ~engine:"i3" ~trace:true (Job.Suite "fib");
        Job.spec ~engine:"i2" (Job.Suite "fib");
      ]
  in
  let traced = List.find (fun (r : Job.result) -> r.id = 0) results in
  let plain = List.find (fun (r : Job.result) -> r.id = 1) results in
  (match plain.profile with
  | None -> ()
  | Some _ -> Alcotest.fail "untraced job must not carry a profile");
  (match traced.profile with
  | None -> Alcotest.fail "traced job lost its profile"
  | Some s ->
    (* the profile agrees with the job's own deterministic counters *)
    Alcotest.(check int) "profile cycles" traced.stats.Job.cycles
      s.Fpc_trace.Profile.s_cycles;
    Alcotest.(check int) "profile refs" traced.stats.Job.mem_refs
      s.Fpc_trace.Profile.s_mem_refs;
    Alcotest.(check bool) "profile has procedures" true
      (List.length s.Fpc_trace.Profile.s_procs > 0));
  (* tracing must not change the simulated outcome *)
  (match (traced.outcome, plain.outcome) with
  | Job.Output a, Job.Output b ->
    Alcotest.(check (list int)) "same output traced or not" b a
  | _ -> Alcotest.fail "both jobs should succeed");
  Alcotest.(check int) "metrics counted the traced job" 1
    m.Metrics.counts.traced_jobs;
  Alcotest.(check bool) "metrics aggregated events" true
    (m.Metrics.counts.trace_events > 0);
  Alcotest.(check bool) "metrics aggregated procedures" true
    (List.exists
       (fun (p : Metrics.proc_cost) -> p.pc_name = "Main.fib")
       m.Metrics.proc_costs);
  (* fast-path counters surface per job, even untraced *)
  Alcotest.(check bool) "rs pushes visible on i3" true
    (traced.stats.Job.fastpath.Fpc_interp.Interp.f_rs_pushes > 0)

(* ---- arena reuse ---- *)

(* One engine's worth of machinery for the arena-vs-clone comparisons. *)
let engine_named name =
  match Job.engine_of_name name with
  | Ok e -> e
  | Error m -> failwith m

let pristine_for cache ~engine ~source =
  let convention = Fpc_compiler.Convention.for_engine engine in
  match Image_cache.find_pristine cache ~convention ~source with
  | Ok (pristine, key, _hit, _dt) -> (pristine, key)
  | Error m -> failwith m

let run_to_outcome st =
  Fpc_interp.Interp.run ~max_steps:200_000 st;
  Fpc_interp.Interp.outcome st

(* Run [source] on a fresh clone of [pristine] — the baseline the arena
   path must be indistinguishable from. *)
let clone_run ~pristine ~engine =
  let image = Fpc_mesa.Image.clone pristine in
  let st =
    Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main"
      ~args:[] ()
  in
  run_to_outcome st

let arena_run arena ~key ~engine ~engine_name ~pristine =
  let slot = Arena.acquire arena ~key ~engine ~engine_name ~pristine () in
  let st = Arena.checkout slot in
  Fpc_core.Transfer.start st ~instance:"Main" ~proc:"main" ~args:[];
  run_to_outcome st

let clone_traced_run ~pristine ~engine =
  let image = Fpc_mesa.Image.clone pristine in
  let p = Fpc_interp.Profiler.create ~image ~engine () in
  let st =
    Fpc_interp.Interp.boot ~tracer:p.Fpc_interp.Profiler.sink ~image ~engine
      ~instance:"Main" ~proc:"main" ~args:[] ()
  in
  let o = run_to_outcome st in
  ignore
    (Fpc_trace.Profile.finish p.Fpc_interp.Profiler.profile
       ~cycles:o.Fpc_interp.Interp.o_cycles
       ~mem_refs:o.Fpc_interp.Interp.o_mem_refs);
  (o, Fpc_trace.Profile.summary p.Fpc_interp.Profiler.profile)

let arena_traced_run arena ~key ~engine ~engine_name ~pristine =
  let slot = Arena.acquire arena ~key ~engine ~engine_name ~pristine () in
  let p = Fpc_interp.Profiler.create ~image:(Arena.image slot) ~engine () in
  let st = Arena.checkout ~tracer:p.Fpc_interp.Profiler.sink slot in
  Fpc_core.Transfer.start st ~instance:"Main" ~proc:"main" ~args:[];
  let o = run_to_outcome st in
  ignore
    (Fpc_trace.Profile.finish p.Fpc_interp.Profiler.profile
       ~cycles:o.Fpc_interp.Interp.o_cycles
       ~mem_refs:o.Fpc_interp.Interp.o_mem_refs);
  (o, Fpc_trace.Profile.summary p.Fpc_interp.Profiler.profile)

(* The tentpole property: a random program run repeatedly through ONE
   reused arena slot is indistinguishable — status, output, meters,
   fast-path counters, traced profile — from runs on fresh clones.  The
   third arena pass per engine runs traced, so the property also covers
   resetting a slot whose previous run had a tracer attached. *)
let arena_reuse_equivalence_prop =
  let cache = Image_cache.create ~capacity:64 () in
  let arena = Arena.create () in
  QCheck.Test.make ~count:15
    ~name:"arena reuse == fresh clones (outcome + profile, all engines)"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 10_000))
    (fun seed ->
      (* odd seeds add coroutine round-trips so the same differential
         sweep also covers non-LIFO XFER and RETCTX *)
      let coroutine_rate = if seed mod 2 = 0 then 0.0 else 0.5 in
      let source =
        Fpc_workload.Synthetic.random_program ~coroutine_rate ~seed ()
      in
      List.for_all
        (fun engine_name ->
          let engine = engine_named engine_name in
          let pristine, key = pristine_for cache ~engine ~source in
          let c1 = clone_run ~pristine ~engine in
          let c2 = clone_run ~pristine ~engine in
          let a1 = arena_run arena ~key ~engine ~engine_name ~pristine in
          let a2 = arena_run arena ~key ~engine ~engine_name ~pristine in
          let ct, cp = clone_traced_run ~pristine ~engine in
          let at, ap =
            arena_traced_run arena ~key ~engine ~engine_name ~pristine
          in
          if not (c1 = c2 && a1 = c1 && a2 = c1) then
            QCheck.Test.fail_reportf "seed %d, %s: arena outcome diverged" seed
              engine_name
          else if not (at = ct && ap = cp) then
            QCheck.Test.fail_reportf "seed %d, %s: traced run diverged" seed
              engine_name
          else true)
        [ "i1"; "i2"; "i3"; "i4" ])

(* After a trapping run dirtied the arena image, a re-acquire must leave
   its store word-for-word equal to a fresh clone's (equivalently, to the
   pristine's) with no dirty pages left behind. *)
let test_arena_reset_restores_store () =
  let cache = Image_cache.create () in
  let engine = engine_named "i2" in
  let pristine, key = pristine_for cache ~engine ~source:infinite_loop_src in
  let arena = Arena.create () in
  let slot = Arena.acquire arena ~key ~engine ~engine_name:"i2" ~pristine () in
  let st = Arena.checkout slot in
  Fpc_core.Transfer.start st ~instance:"Main" ~proc:"main" ~args:[];
  Fpc_interp.Interp.run ~max_steps:10_000 st;
  (match st.Fpc_core.State.status with
  | Fpc_core.State.Trapped Fpc_core.State.Step_limit -> ()
  | _ -> Alcotest.fail "expected the loop to trap on the step limit");
  let mem slot = (Arena.image slot).Fpc_mesa.Image.mem in
  Alcotest.(check bool) "the run dirtied pages" true
    (Fpc_machine.Memory.dirty_pages (mem slot) > 0);
  let slot2 = Arena.acquire arena ~key ~engine ~engine_name:"i2" ~pristine () in
  Alcotest.(check bool) "same physical slot reused" true (slot == slot2);
  Alcotest.(check int) "reset leaves no dirty pages" 0
    (Fpc_machine.Memory.dirty_pages (mem slot2));
  let fresh = (Fpc_mesa.Image.clone pristine).Fpc_mesa.Image.mem in
  let n = Fpc_machine.Memory.size (mem slot2) in
  Alcotest.(check int) "same store size" n (Fpc_machine.Memory.size fresh);
  let diff = ref 0 in
  for a = 0 to n - 1 do
    if Fpc_machine.Memory.peek (mem slot2) a <> Fpc_machine.Memory.peek fresh a
    then incr diff
  done;
  Alcotest.(check int) "reset store word-equal to a fresh clone" 0 !diff;
  let s = Arena.stats arena in
  Alcotest.(check int) "one miss, one hit" 1 s.Arena.hits;
  Alcotest.(check int) "one miss, one hit (misses)" 1 s.Arena.misses

(* A fuel-exhausted scheduler job must leave its arena slot reusable:
   abandoning a half-run session workload mid-slice (status
   Trapped Step_limit, live forked processes, half-consumed frame heap)
   and reacquiring the same slot has to produce a run indistinguishable
   from a fresh clone. *)
let test_arena_mid_slice_reuse () =
  let cache = Image_cache.create () in
  let arena = Arena.create () in
  let source =
    Fpc_workload.Sessions.program (Fpc_workload.Sessions.default ~total:16)
  in
  let engine_name = "i2" in
  let engine = engine_named engine_name in
  let pristine, key = pristine_for cache ~engine ~source in
  let baseline = clone_run ~pristine ~engine in
  let slot = Arena.acquire arena ~key ~engine ~engine_name ~pristine () in
  let st = Arena.checkout slot in
  Fpc_core.Transfer.start st ~instance:"Main" ~proc:"main" ~args:[];
  let step n st = Fpc_interp.Interp.run ~max_steps:n st in
  ignore (Fpc_sched.Sched.run ~step ~fuel:500 st);
  (match st.Fpc_core.State.status with
  | Fpc_core.State.Trapped Fpc_core.State.Step_limit -> ()
  | _ -> Alcotest.fail "tiny-fuel scheduler run should exhaust mid-workload");
  let again = arena_run arena ~key ~engine ~engine_name ~pristine in
  Alcotest.(check bool) "reused slot indistinguishable from a fresh clone"
    true
    (again = baseline);
  let s = Arena.stats arena in
  Alcotest.(check int) "the rerun reset the abandoned slot (hit)" 1
    s.Arena.hits

(* A program that writes into its own code region: an out-of-range global
   array store [g[k] := v], with [k] and [v] aimed by the host (found by
   their sentinel initial values) at Main.f's entry-vector word
   ([ev_word]), which it points at Main.h.  A slot reused after it must
   not keep the patched word. *)
let code_write_src =
  {|
MODULE Main;
VAR g: ARRAY 1 OF INT;
VAR k: INT := 1111;
VAR v: INT := 2222;
PROC f(n: INT): INT =
  RETURN n + 1;
END;
PROC h(n: INT): INT =
  RETURN n * 10;
END;
PROC main() =
  OUTPUT f(1);
  g[k] := v;
  OUTPUT f(2);
END;
END;
|}

let ev_word image =
  let module Image = Fpc_mesa.Image in
  Image.gf_code_base image ~instance:"Main"
  + (Image.find_proc image ~instance:"Main" ~proc:"f").Image.pi_ev

let aim_code_write image =
  let module Image = Fpc_mesa.Image in
  let ii = Image.find_instance image "Main" in
  let globals = (Image.find_module image "Main").Fpc_mesa.Compiled.m_global_init in
  let index_of sentinel = fst (List.find (fun (_, v) -> v = sentinel) globals) in
  let k_index = index_of 1111 and v_index = index_of 2222 in
  let global i = ii.Image.ii_gf_addr + Image.global_base + i in
  let h = Image.find_proc image ~instance:"Main" ~proc:"h" in
  let mem = image.Image.mem in
  Fpc_machine.Memory.poke mem (global k_index) (ev_word image - global (k_index - 1));
  Fpc_machine.Memory.poke mem (global v_index) h.Image.pi_entry_offset

(* Eviction is exact: a two-image arena cycles three programs over every
   engine and both tiers, so images are reset on hits and dropped on
   misses.  I1 and I2 compile to one pristine and share its image, and
   their jobs first alternate on it: a job of one engine follows the
   other's Step_limit trap and its code-region write on the shared store.
   Then each engine in turn runs a sequence of its own, which reuses its
   state after its own trap and its own code write and evicts a trapped
   image and a code-writing one.  Every job must equal a fresh-clone run
   on outcome and every meter, the arena's counters must match an LRU
   model over image keys (a hit needs the image and the engine's state on
   it), and the model checks that every engine met every case. *)
let test_arena_eviction_exact () =
  let capacity = 2 in
  let arena = Arena.create ~capacity () in
  let cache = Image_cache.create () in
  let programs =
    [
      ("fib", Fpc_workload.Programs.find "fib", ignore);
      ("loop", infinite_loop_src, ignore);
      ("code-write", code_write_src, aim_code_write);
    ]
  in
  let shared =
    [
      ("fib", "i1"); ("loop", "i2"); ("loop", "i1"); ("loop", "i2");
      ("fib", "i2"); ("fib", "i1"); ("code-write", "i1"); ("code-write", "i2");
      ("fib", "i2"); ("code-write", "i1"); ("loop", "i1"); ("fib", "i2");
      ("fib", "i2"); ("loop", "i2"); ("loop", "i1");
    ]
  in
  (* A hit after the trap, the trapped image evicted, a hit after the
     code write, the code-writing image evicted. *)
  let own engine_name =
    List.map
      (fun name -> (name, engine_name))
      [ "fib"; "loop"; "loop"; "fib"; "code-write"; "code-write"; "loop"; "fib"; "fib" ]
  in
  let sequence = shared @ List.concat_map own [ "i1"; "i2"; "i3"; "i4" ] in
  (* The model: image keys, most recent first, each with its engines and
     the program and engine of the last job on it.  [covered] collects
     what each (engine, tier) met. *)
  let lru = ref [] and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let covered = Hashtbl.create 16 in
  let cover engine_name tier case = Hashtbl.replace covered (engine_name, tier, case) () in
  let model_access key ~tier name engine_name =
    match List.assoc_opt key !lru with
    | Some (engines, (last_name, last_engine)) ->
      if List.mem engine_name engines then incr hits else incr misses;
      if last_engine <> engine_name then
        cover engine_name tier ("image reused after another engine's " ^ last_name)
      else if List.mem engine_name engines then
        cover engine_name tier ("state reused after " ^ last_name);
      let engines = List.sort_uniq compare (engine_name :: engines) in
      lru := (key, (engines, (name, engine_name))) :: List.remove_assoc key !lru
    | None ->
      incr misses;
      if List.length !lru >= capacity then begin
        incr evictions;
        let _, (victims, (last_name, _)) = List.nth !lru (capacity - 1) in
        List.iter (fun e -> cover e tier ("evicted after " ^ last_name)) victims;
        lru := List.filteri (fun i _ -> i < capacity - 1) !lru
      end;
      lru := (key, ([ engine_name ], (name, engine_name))) :: !lru
  in
  let run ~tier image st =
    if tier = "compiled" then
      Fpc_tier.Tier.run ~max_steps:200_000 (fst (Fpc_tier.Tier.of_image image)) st
    else Fpc_interp.Interp.run ~max_steps:200_000 st;
    Fpc_interp.Interp.outcome st
  in
  (* Pristines come from the cache, so I1 and I2 get the same one and
     the arena key is the cache's content key; the code-write program is
     aimed once, when it is compiled. *)
  let pristine_of name ~engine ~tier =
    let _, source, prepare = List.find (fun (n, _, _) -> n = name) programs in
    match
      Image_cache.find_pristine cache ~tier
        ~convention:(Fpc_compiler.Convention.for_engine engine)
        ~source
    with
    | Ok (pristine, key, hit, _) ->
      if not hit then prepare pristine;
      (pristine, key)
    | Error m -> failwith m
  in
  List.iter
    (fun tier ->
      List.iter
        (fun (name, engine_name) ->
          let engine = engine_named engine_name in
          let pristine, key = pristine_of name ~engine ~tier in
          let fresh_image = Fpc_mesa.Image.clone pristine in
          let fresh =
            run ~tier fresh_image
              (Fpc_interp.Interp.boot ~image:fresh_image ~engine ~instance:"Main"
                 ~proc:"main" ~args:[] ())
          in
          let reused =
            let slot =
              Arena.acquire arena ~key ~engine ~engine_name ~tier_name:tier
                ~pristine ()
            in
            let st = Arena.checkout slot in
            Fpc_core.Transfer.start st ~instance:"Main" ~proc:"main" ~args:[];
            run ~tier (Arena.image slot) st
          in
          model_access (key ^ "|" ^ tier) ~tier name engine_name;
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s/%s equals a fresh clone" name engine_name tier)
            true (reused = fresh);
          if name = "code-write" then
            Alcotest.(check bool) "the store lands in the code region" true
              (Fpc_machine.Memory.peek fresh_image.Fpc_mesa.Image.mem (ev_word pristine)
              <> Fpc_machine.Memory.peek pristine.Fpc_mesa.Image.mem (ev_word pristine));
          if name = "loop" then
            Alcotest.(check bool) "the loop traps on the step limit" true
              (fresh.Fpc_interp.Interp.o_status
              = Fpc_core.State.Trapped Fpc_core.State.Step_limit))
        sequence)
    [ ""; "compiled" ];
  let s = Arena.stats arena in
  Alcotest.(check int) "hits" !hits s.Arena.hits;
  Alcotest.(check int) "misses" !misses s.Arena.misses;
  Alcotest.(check int) "evictions" !evictions s.Arena.evictions;
  Alcotest.(check int) "images" capacity s.Arena.images;
  Alcotest.(check int) "states"
    (List.fold_left (fun n (_, (engines, _)) -> n + List.length engines) 0 !lru)
    s.Arena.states;
  List.iter
    (fun tier ->
      List.iter
        (fun engine_name ->
          let cases =
            [ "state reused after loop"; "state reused after code-write";
              "evicted after loop"; "evicted after code-write" ]
            @
            if engine_name = "i1" || engine_name = "i2" then
              [ "image reused after another engine's loop";
                "image reused after another engine's code-write" ]
            else []
          in
          List.iter
            (fun case ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s: %s" engine_name tier case)
                true (Hashtbl.mem covered (engine_name, tier, case)))
            cases)
        [ "i1"; "i2"; "i3"; "i4" ])
    [ ""; "compiled" ]

(* A cache-hit session job allocates nothing straight into the major
   heap: its ~2 KB program text, too large for the minor heap, is built
   once per config, and nothing else on the path is that large.  Direct
   major allocation is the major words that were not promoted; a minor
   collection before each reading brings the domain's counters up to
   date (without it a reading can lag by a whole earlier job). *)
let test_session_job_no_direct_major () =
  let cache = Image_cache.create () in
  let arena = Pool.worker_arena cache in
  let direct () =
    Gc.minor ();
    let g = Gc.quick_stat () in
    g.Gc.major_words -. g.Gc.promoted_words
  in
  List.iter
    (fun engine ->
      let spec =
        Job.spec ~engine
          (Job.Sessions { (Fpc_workload.Sessions.default ~total:250) with seed = 2 })
      in
      let run i =
        match (Pool.execute ~arena cache i spec).Job.outcome with
        | Job.Output _ -> ()
        | Job.Failed (_, m) -> Alcotest.failf "%s session job failed: %s" engine m
      in
      run 0;
      let d0 = direct () in
      run 1;
      let d1 = direct () in
      Alcotest.(check (float 0.0))
        (engine ^ ": direct major words of a cache-hit session job")
        0.0 (d1 -. d0))
    [ "i1"; "i2"; "i3"; "i4" ]

(* The per-job allocation budgets.  A job that hits the cache and its
   worker's arena resets a slot instead of cloning, so what it allocates
   is bounded.  A job's words are the minor words its worker counts for
   it plus what went straight into the major heap (an array past the
   minor heap's size limit goes there; a minor collection before each
   reading brings the counters up to date).  A suite job (every program
   on I1-I4) stays within 256 words.  A session job, which takes the
   scheduler and every process operation (FORK, YIELD, coroutine XFER,
   process end), stays within 4,096. *)
let job_words ~arena cache spec =
  let direct_major () =
    Gc.minor ();
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let d0 = direct_major () in
  let r = Pool.execute ~arena cache 0 spec in
  (match r.Job.outcome with
  | Job.Output _ -> ()
  | Job.Failed (_, m) -> Alcotest.failf "job failed: %s" m);
  r.Job.stats.Job.minor_words + int_of_float (direct_major () -. d0)

(* The worst of four arena-hit runs of [spec], after a warm-up run. *)
let steady_worst ~arena cache spec =
  ignore (job_words ~arena cache spec);
  List.fold_left
    (fun acc _ -> max acc (job_words ~arena cache spec))
    0 [ 1; 2; 3; 4 ]

let test_suite_job_alloc_budget () =
  let cache = Image_cache.create () in
  let arena = Pool.worker_arena cache in
  List.iter
    (fun spec ->
      let worst = steady_worst ~arena cache spec in
      if worst > 256 then
        Alcotest.failf "%s: a steady-state job allocates %d words > budget 256"
          (Job.request_of_spec spec) worst)
    (suite_specs ())

let test_session_job_alloc_budget () =
  let cache = Image_cache.create () in
  let arena = Pool.worker_arena cache in
  List.iter
    (fun engine ->
      let spec =
        Job.spec ~engine
          (Job.Sessions
             { (Fpc_workload.Sessions.default ~total:100) with window = 8 })
      in
      let worst = steady_worst ~arena cache spec in
      if worst > 4096 then
        Alcotest.failf "%s: an arena-hit session job allocates %d words > \
                        budget 4096" engine worst)
    [ "i1"; "i2"; "i3"; "i4" ]

(* serve-hot's working set fits the worker's arena: its 44 request
   shapes (the call-intensive programs x I1-I4) compile to 33 pristines,
   because I1 and I2 share one, and an arena made the way a worker makes
   it holds all of them.  A second pass over the shapes never clones or
   creates a state. *)
let test_serve_hot_working_set () =
  let cache = Image_cache.create () in
  let arena = Pool.worker_arena cache in
  let shapes =
    List.concat_map
      (fun p ->
        List.map
          (fun engine -> Job.request_of_spec (Job.spec ~engine (Job.Suite p)))
          [ "i1"; "i2"; "i3"; "i4" ])
      Fpc_workload.Programs.call_intensive
  in
  Alcotest.(check int) "44 shapes" 44 (List.length shapes);
  let pass () =
    List.iteri
      (fun i line ->
        match Job.parse_request line with
        | Error m -> Alcotest.failf "bad request %S: %s" line m
        | Ok spec -> (
          match (Pool.execute ~arena cache i spec).Job.outcome with
          | Job.Output _ -> ()
          | Job.Failed (_, m) -> Alcotest.failf "%s failed: %s" line m))
      shapes
  in
  pass ();
  let first = Arena.stats arena in
  pass ();
  let s = Arena.stats arena in
  Alcotest.(check int) "second pass: no misses" 0 (s.Arena.misses - first.Arena.misses);
  Alcotest.(check int) "second pass: all hits" 44 (s.Arena.hits - first.Arena.hits);
  Alcotest.(check int) "no evictions" 0 s.Arena.evictions;
  Alcotest.(check int) "33 images" 33 s.Arena.images;
  Alcotest.(check int) "44 states" 44 s.Arena.states;
  let store_bytes =
    let pristine, _ =
      pristine_for (Image_cache.create ()) ~engine:(engine_named "i2")
        ~source:(Fpc_workload.Programs.find "fib")
    in
    2 * Fpc_machine.Memory.size pristine.Fpc_mesa.Image.mem
  in
  Alcotest.(check int) "one store per image" (33 * store_bytes)
    s.Arena.store_bytes

(* The pool folds each worker arena's counters into its metrics shard,
   so a snapshot (and [/stats]) reports them; with reuse off they stay
   zero. *)
let test_pool_metrics_count_arena () =
  let specs =
    [
      Job.spec ~engine:"i2" (Job.Suite "fib");
      Job.spec ~engine:"i2" (Job.Suite "fib");
      Job.spec ~engine:"i3" (Job.Suite "hanoi");
      Job.spec ~engine:"i2" (Job.Suite "fib");
    ]
  in
  let _, m = Pool.run_jobs ~domains:1 specs in
  let a = m.Metrics.counts.arena in
  Alcotest.(check (list int)) "hits, misses, evictions, images, states"
    [ 2; 2; 0; 2; 2 ]
    [ a.Arena.hits; a.Arena.misses; a.Arena.evictions; a.Arena.images;
      a.Arena.states ];
  let json = Fpc_util.Jsonout.to_string (Metrics.to_json m) in
  let open Fpc_util.Jsonout in
  (match Fpc_util.Jsonin.parse json with
  | Ok (Obj fields) -> (
    match List.assoc_opt "arena" fields with
    | Some (Obj arena) ->
      Alcotest.(check bool) "arena hits in the metrics JSON" true
        (List.assoc_opt "hits" arena = Some (Int 2))
    | _ -> Alcotest.fail "no arena object in the metrics JSON")
  | _ -> Alcotest.fail "metrics JSON is not an object");
  let _, off = Pool.run_jobs ~domains:1 ~arena_reuse:false specs in
  Alcotest.(check int) "reuse off: no arena acquisitions" 0
    (off.Metrics.counts.arena.Arena.hits + off.Metrics.counts.arena.Arena.misses)

(* End-to-end through the pool: arena reuse on (the default) and off must
   produce identical results, job for job. *)
let test_pool_arena_matches_clone_path () =
  let specs = suite_specs () in
  let specs = specs @ specs in
  let ra, ma = Pool.run_jobs ~domains:2 ~arena_reuse:true specs in
  let rc, mc = Pool.run_jobs ~domains:2 ~arena_reuse:false specs in
  Alcotest.(check int) "all jobs ran (arena)" (List.length specs)
    ma.Metrics.counts.jobs;
  Alcotest.(check int) "all jobs ran (clone)" (List.length specs)
    mc.Metrics.counts.jobs;
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d identical with and without arena" a.Job.id)
        true
        (fingerprint a = fingerprint b))
    ra rc

(* The tier is invisible in deterministic output: the whole suite x all
   engines produces identical fingerprints (result lines, simulated
   meters) whether the pool interprets or runs threaded code — and the
   compiled run's metrics account one translation per job (misses for
   each distinct pristine image, hits for the rest). *)
let test_pool_tiers_agree () =
  let with_tier tier =
    List.map (fun s -> { s with Job.tier }) (suite_specs ())
  in
  let ri, mi = Pool.run_jobs ~domains:2 (with_tier Job.Interp) in
  let rc, mc = Pool.run_jobs ~domains:2 (with_tier Job.Compiled) in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d identical across tiers" a.Job.id)
        true
        (fingerprint a = fingerprint b))
    ri rc;
  Alcotest.(check int) "interp tier never translates" 0
    (mi.Metrics.counts.translation_hits + mi.Metrics.counts.translation_misses);
  Alcotest.(check int) "compiled tier translates once per job"
    mc.Metrics.counts.jobs
    (mc.Metrics.counts.translation_hits + mc.Metrics.counts.translation_misses);
  Alcotest.(check bool) "some translations were shared" true
    (mc.Metrics.counts.translation_hits > 0)

(* The deadline slicer drives the compiled tier too: a runaway loop on
   tier=compiled comes back Deadline_exceeded despite a huge fuel
   budget (Tier.run resumes across Step_limit slices). *)
let test_deadline_exceeded_compiled_tier () =
  let results, m =
    Pool.run_jobs ~domains:1
      [
        Job.spec ~tier:Job.Compiled ~fuel:2_000_000_000 ~deadline_ms:100
          (Job.Inline infinite_loop_src);
      ]
  in
  (match (List.hd results).Job.outcome with
  | Job.Failed (Job.Deadline_exceeded, _) -> ()
  | _ -> Alcotest.fail "compiled runaway should fail with Deadline_exceeded");
  Alcotest.(check int) "metrics counted the deadline" 1
    m.Metrics.counts.deadline_exceeded

let () =
  Alcotest.run "svc"
    [
      ( "pool",
        [
          Alcotest.test_case "determinism across domain counts" `Slow
            test_determinism_across_domain_counts;
          Alcotest.test_case "results in submission order" `Quick
            test_results_in_submission_order;
          Alcotest.test_case "poisoned jobs do not kill the pool" `Quick
            test_poisoned_jobs_do_not_kill_the_pool;
          Alcotest.test_case "unknown engine/program degrade" `Quick
            test_unknown_engine_and_program_degrade;
          Alcotest.test_case "soak: concurrent producers x widths" `Slow
            test_soak_concurrent_producers;
          Alcotest.test_case "deliver mode pushes every result once" `Quick
            test_deliver_mode;
          Alcotest.test_case "deadline fails the job, not the worker" `Quick
            test_deadline_exceeded;
          Alcotest.test_case "merged counts match the results" `Quick
            test_merged_counts_match_results;
        ] );
      ( "tier",
        [
          Alcotest.test_case "fingerprints agree across tiers" `Slow
            test_pool_tiers_agree;
          Alcotest.test_case "deadline through the compiled tier" `Quick
            test_deadline_exceeded_compiled_tier;
        ] );
      ( "cache",
        [
          Alcotest.test_case "second submission hits" `Quick
            test_cache_hit_skips_compilation;
          Alcotest.test_case "one convention, one entry" `Quick
            test_cache_shared_across_engines_of_one_convention;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
        ] );
      ( "arena",
        [
          QCheck_alcotest.to_alcotest arena_reuse_equivalence_prop;
          Alcotest.test_case "reset restores the store" `Quick
            test_arena_reset_restores_store;
          Alcotest.test_case "fuel-exhausted sched job leaves slot reusable"
            `Quick test_arena_mid_slice_reuse;
          Alcotest.test_case "eviction is exact" `Quick test_arena_eviction_exact;
          Alcotest.test_case "serve-hot's working set fits the worker arena"
            `Quick test_serve_hot_working_set;
          Alcotest.test_case "pool metrics count arena reuse" `Quick
            test_pool_metrics_count_arena;
          Alcotest.test_case "cache-hit session job: no direct major words"
            `Quick test_session_job_no_direct_major;
          Alcotest.test_case "suite job allocation budget" `Quick
            test_suite_job_alloc_budget;
          Alcotest.test_case "session job allocation budget" `Quick
            test_session_job_alloc_budget;
          Alcotest.test_case "pool results identical with arena off" `Slow
            test_pool_arena_matches_clone_path;
        ] );
      ( "job",
        [
          Alcotest.test_case "request line round-trip" `Quick
            test_request_line_roundtrip;
          QCheck_alcotest.to_alcotest request_roundtrip_prop;
          QCheck_alcotest.to_alcotest request_junk_tail_prop;
          Alcotest.test_case "metrics JSON shape" `Quick test_metrics_json_shape;
          Alcotest.test_case "traced job carries a profile" `Quick
            test_traced_job;
        ] );
    ]
