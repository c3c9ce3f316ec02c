(* lib/sched: scheduling must never change what a program computes.
   The qcheck property drives one session workload (random seed and
   shape) through the scheduler on all four engines under both execution
   tiers — plain and traced — and requires byte-identical outputs
   everywhere plus bit-identical meters between tiers per engine.  The
   unit tests pin the policy parser, fuel-slice resumability and the
   preemptive policy's determinism; the ring tests drive the machine's
   ready ring through growth, wrap-around, FORK arguments and a reset
   with processes still queued. *)

let engines =
  [
    ("i1", Fpc_core.Engine.i1);
    ("i2", Fpc_core.Engine.i2);
    ("i3", Fpc_core.Engine.i3 ());
    ("i4", Fpc_core.Engine.i4 ());
  ]

let image_for ~engine source =
  let convention = Fpc_compiler.Convention.for_engine engine in
  match Fpc_compiler.Compile.image ~convention source with
  | Ok i -> i
  | Error m -> failwith m

let fingerprint (st : Fpc_core.State.t) =
  let m = st.metrics in
  ( Fpc_core.State.output st,
    m.instructions,
    Fpc_machine.Cost.cycles st.cost,
    Fpc_machine.Cost.mem_refs st.cost,
    (m.calls, m.returns, m.other_xfers, m.fast_transfers),
    (m.procs_forked, m.procs_ended, m.peak_live_procs) )

(* One scheduled run: boot a fresh clone, drive it with Sched.run under
   [policy] on the chosen tier, optionally traced, and require a clean
   halt.  Returns the fingerprint (plus the traced profile summary when
   tracing). *)
let sched_run ?(policy = Fpc_sched.Sched.Run_to_yield) ?(traced = false)
    ~engine ~compiled source =
  let image = Fpc_mesa.Image.clone (image_for ~engine source) in
  let profiler =
    if traced then Some (Fpc_interp.Profiler.create ~image ~engine ())
    else None
  in
  let st =
    Fpc_interp.Interp.boot
      ?tracer:(Option.map (fun p -> p.Fpc_interp.Profiler.sink) profiler)
      ~image ~engine ~instance:"Main" ~proc:"main" ~args:[] ()
  in
  let step =
    if compiled then (
      let tr = Fpc_tier.Tier.translate image in
      fun n st -> Fpc_tier.Tier.run ~max_steps:n tr st)
    else fun n st -> Fpc_interp.Interp.run ~max_steps:n st
  in
  let stats = Fpc_sched.Sched.run ~policy ~step ~fuel:5_000_000 st in
  (match st.Fpc_core.State.status with
  | Fpc_core.State.Halted -> ()
  | _ -> failwith "scheduled workload did not halt");
  let profile =
    Option.map
      (fun p ->
        ignore
          (Fpc_trace.Profile.finish p.Fpc_interp.Profiler.profile
             ~cycles:(Fpc_machine.Cost.cycles st.cost)
             ~mem_refs:(Fpc_machine.Cost.mem_refs st.cost));
        Fpc_trace.Profile.summary p.Fpc_interp.Profiler.profile)
      profiler
  in
  (fingerprint st, stats, profile)

let source_of ~seed ~total ~window =
  let c = Fpc_workload.Sessions.default ~total in
  Fpc_workload.Sessions.program
    { c with Fpc_workload.Sessions.window; seed }

(* ---- the determinism property ---- *)

let determinism_prop =
  QCheck.Test.make ~count:12
    ~name:
      "scheduler determinism: outputs across engines, meters across tiers \
       (incl. traced)"
    QCheck.(
      make
        ~print:(fun (s, t, w) -> Printf.sprintf "seed=%d total=%d window=%d" s t w)
        Gen.(triple (int_range 0 10_000) (int_range 4 48) (int_range 2 8)))
    (fun (seed, total, window) ->
      let source = source_of ~seed ~total ~window in
      let runs =
        List.map
          (fun (en, engine) ->
            let fp_i, _, _ = sched_run ~engine ~compiled:false source in
            let fp_c, _, _ = sched_run ~engine ~compiled:true source in
            let fp_it, _, p_i = sched_run ~traced:true ~engine ~compiled:false source in
            let fp_ct, _, p_c = sched_run ~traced:true ~engine ~compiled:true source in
            if fp_i <> fp_c then
              QCheck.Test.fail_reportf "tiers diverged under %s" en;
            if fp_it <> fp_i then
              QCheck.Test.fail_reportf "tracing changed the run under %s" en;
            if fp_ct <> fp_it || p_i <> p_c then
              QCheck.Test.fail_reportf
                "traced tier run diverged under %s" en;
            (en, fp_i))
          engines
      in
      let output (_, (o, _, _, _, _, _)) = o in
      match runs with
      | [] -> true
      | first :: rest ->
        List.for_all
          (fun r ->
            if output r <> output first then
              QCheck.Test.fail_reportf "outputs differ: %s vs %s" (fst first)
                (fst r)
            else true)
          rest)

(* Preemption must preserve per-engine tier identity (and, because the
   generated workload's checksum is interleaving-insensitive and injected
   yields sit at statement boundaries, the bytes of the output too). *)
let preempt_determinism_prop =
  QCheck.Test.make ~count:8
    ~name:"preempt: tier-identical meters, yield-identical output"
    QCheck.(
      make
        ~print:(fun (s, q) -> Printf.sprintf "seed=%d quantum=%d" s q)
        Gen.(pair (int_range 0 10_000) (int_range 50 800)))
    (fun (seed, quantum) ->
      let source = source_of ~seed ~total:24 ~window:4 in
      let policy = Fpc_sched.Sched.Preempt { quantum } in
      List.for_all
        (fun (en, engine) ->
          let fp_y, _, _ = sched_run ~engine ~compiled:false source in
          let fp_i, _, _ = sched_run ~policy ~engine ~compiled:false source in
          let fp_c, _, _ = sched_run ~policy ~engine ~compiled:true source in
          if fp_i <> fp_c then
            QCheck.Test.fail_reportf "preempt tiers diverged under %s" en
          else
            let output (o, _, _, _, _, _) = o in
            if output fp_i <> output fp_y then
              QCheck.Test.fail_reportf
                "preempt changed the output under %s" en
            else true)
        engines)

(* ---- unit tests ---- *)

let test_policy_strings () =
  let roundtrip p =
    match Fpc_sched.Sched.(policy_of_string (policy_to_string p)) with
    | Ok p' -> Alcotest.(check string) "round trip"
        (Fpc_sched.Sched.policy_to_string p)
        (Fpc_sched.Sched.policy_to_string p')
    | Error m -> Alcotest.fail m
  in
  roundtrip Fpc_sched.Sched.Run_to_yield;
  roundtrip (Fpc_sched.Sched.Preempt { quantum = 250 });
  (match Fpc_sched.Sched.policy_of_string "preempt" with
  | Ok (Fpc_sched.Sched.Preempt { quantum = 1000 }) -> ()
  | _ -> Alcotest.fail "bare preempt should use the default quantum");
  match Fpc_sched.Sched.policy_of_string "fifo" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown policy must be rejected"

(* Fuel exhaustion is a resumable boundary: a starved run is left
   Trapped Step_limit, and handing the same machine back to Sched.run
   with more fuel finishes the workload with the one-shot answer. *)
let test_fuel_exhaustion_resumes () =
  let source = source_of ~seed:7 ~total:16 ~window:4 in
  let engine = Fpc_core.Engine.i2 in
  let one_shot, _, _ = sched_run ~engine ~compiled:false source in
  let image = Fpc_mesa.Image.clone (image_for ~engine source) in
  let st =
    Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main"
      ~args:[] ()
  in
  let step n st = Fpc_interp.Interp.run ~max_steps:n st in
  ignore (Fpc_sched.Sched.run ~step ~fuel:300 st);
  (match st.Fpc_core.State.status with
  | Fpc_core.State.Trapped Fpc_core.State.Step_limit -> ()
  | _ -> Alcotest.fail "starved run should be left at the fuel boundary");
  ignore (Fpc_sched.Sched.run ~step ~fuel:5_000_000 st);
  Alcotest.(check bool) "resumed run matches the one-shot run" true
    (fingerprint st = one_shot)

(* The report is pure simulated meters; spot-check its arithmetic and the
   stable rendering the cram test pins. *)
let test_report_shape () =
  let source = source_of ~seed:3 ~total:12 ~window:3 in
  let engine = Fpc_core.Engine.i2 in
  let image = Fpc_mesa.Image.clone (image_for ~engine source) in
  let st =
    Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main"
      ~args:[] ()
  in
  let step n st = Fpc_interp.Interp.run ~max_steps:n st in
  let stats = Fpc_sched.Sched.run ~step ~fuel:5_000_000 st in
  let r = Fpc_sched.Sched.report ~lifo_reserved:1000 ~stats st in
  Alcotest.(check int) "every session forked" 12 r.Fpc_sched.Sched.forked;
  Alcotest.(check int) "every process retired (boot included)" 13
    r.Fpc_sched.Sched.ended;
  Alcotest.(check bool) "peak within the window (+driver)" true
    (r.Fpc_sched.Sched.peak_live <= 4);
  Alcotest.(check bool) "footprint ratio computed" true
    (r.Fpc_sched.Sched.footprint_ratio > 0.0);
  Alcotest.(check int) "four stable report lines" 4
    (List.length (Fpc_sched.Sched.report_lines r))

(* ---- the ready ring ---- *)

(* Everything observable about a run, the tier's own host-speed counters
   excluded: the interpreter outcome plus the meters it does not fold in. *)
let observe (st : Fpc_core.State.t) =
  let m = st.metrics in
  ( Fpc_interp.Interp.outcome st,
    (m.jumps_taken, m.local_refs, m.global_refs, m.indirect_refs),
    (m.arg_words_stored, m.arg_words_renamed, m.call_depth),
    (m.procs_forked, m.procs_ended, m.peak_live_procs) )

let step_for ~compiled image =
  if compiled then (
    let tr = Fpc_tier.Tier.translate image in
    fun n st -> Fpc_tier.Tier.run ~max_steps:n tr st)
  else fun n st -> Fpc_interp.Interp.run ~max_steps:n st

(* Run [source] on a fresh clone under [policy] on both tiers; require
   tier == interp on [observe] and return the interpreter's machine. *)
let ring_run ?(policy = Fpc_sched.Sched.Run_to_yield) ?(fuel = 5_000_000)
    ~name ~engine source =
  let pristine = image_for ~engine source in
  let run compiled =
    let image = Fpc_mesa.Image.clone pristine in
    let st =
      Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main"
        ~args:[] ()
    in
    ignore (Fpc_sched.Sched.run ~policy ~step:(step_for ~compiled image) ~fuel st);
    st
  in
  let st = run false in
  if observe (run true) <> observe st then
    Alcotest.failf "%s: the compiled tier diverged from the interpreter" name;
  st

let ring_capacity0 ~engine source =
  let image = Fpc_mesa.Image.clone (image_for ~engine source) in
  Array.length (Fpc_core.State.create ~image ~engine ()).Fpc_core.State.ring

(* [n] workers of three arguments each, every argument word of which
   must arrive.  On I4 FORK stores the arguments into the new frame;
   elsewhere they ride the process's saved evaluation stack.  Unless
   [bare], the wait loop does more than YIELD. *)
let forking_workers ?(bare = false) n =
  Printf.sprintf
    {|
MODULE Main;
VAR finished: INT := 0;
PROC worker(id: INT, a: INT, b: INT) =
  VAR i: INT := 0;
  WHILE i < 3 DO
    OUTPUT id * 1000 + a * 100 + b * 10 + i;
    i := i + 1;
    YIELD;
  END;
  finished := finished + 1;
END;
PROC main() =
  VAR k: INT := 0;
  WHILE k < %d DO
    FORK worker(k + 1, k MOD 7, 9 - k MOD 5);
    k := k + 1;
  END;
  WHILE finished < %d DO
    YIELD;%s
  END;
  OUTPUT finished;
END;
END;
|}
    n n
    (if bare then "" else "\n    k := k + 1;")

let check_forking ~name ~n (st : Fpc_core.State.t) =
  (match st.status with
  | Fpc_core.State.Halted -> ()
  | _ -> Alcotest.failf "%s: did not halt" name);
  let expected =
    n
    :: List.concat_map
         (fun k ->
           List.init 3 (fun i ->
               ((k + 1) * 1000) + (k mod 7 * 100) + ((9 - (k mod 5)) * 10) + i))
         (List.init n Fun.id)
  in
  Alcotest.(check (list int))
    (name ^ ": every worker's argument words arrived")
    (List.sort Int.compare expected)
    (List.sort Int.compare (Fpc_core.State.output st))

let test_ring_growth_and_fork_args () =
  List.iter
    (fun (en, engine) ->
      Alcotest.(check bool)
        (en ^ ": FORK stores arguments in place iff banks (I4)")
        (en = "i4") (Fpc_core.Engine.args_in_place engine);
      let source = forking_workers 12 in
      let cap0 = ring_capacity0 ~engine source in
      let st = ring_run ~name:en ~engine source in
      check_forking ~name:en ~n:12 st;
      Alcotest.(check bool)
        (en ^ ": more live processes than initial slots")
        true
        (st.metrics.peak_live_procs > cap0);
      Alcotest.(check bool)
        (en ^ ": the ring grew, keeping a power of two")
        true
        (let n = Array.length st.ring in
         n > cap0 && n land (n - 1) = 0))
    engines

(* Small quanta force many switches through a ring that never fills (six
   workers and [main] fit the initial slots): the head and tail wrap
   around it again and again. *)
let test_ring_wraps_under_preempt () =
  let source = forking_workers 6 in
  List.iter
    (fun quantum ->
      List.iter
        (fun (en, engine) ->
          let name = Printf.sprintf "%s preempt:%d" en quantum in
          let policy = Fpc_sched.Sched.Preempt { quantum } in
          let cap0 = ring_capacity0 ~engine source in
          let st = ring_run ~policy ~name ~engine source in
          check_forking ~name ~n:6 st;
          Alcotest.(check int) (name ^ ": no growth") cap0
            (Array.length st.ring);
          Alcotest.(check bool)
            (name ^ ": switches wrapped the ring")
            true
            (st.metrics.other_xfers > 4 * cap0))
        engines)
    [ 2; 3; 7 ]

(* A machine reset while processes are still queued must not resume
   them: a rerun on the recycled state equals a run on a fresh one. *)
let test_ring_reset_rerun () =
  List.iter
    (fun (en, engine) ->
      List.iter
        (fun (source, policy) ->
          List.iter
            (fun compiled ->
              let name =
                Printf.sprintf "%s %s %s" en
                  (Fpc_sched.Sched.policy_to_string policy)
                  (if compiled then "compiled" else "interp")
              in
              let pristine = image_for ~engine source in
              let image = Fpc_mesa.Image.clone pristine in
              let step = step_for ~compiled image in
              let st =
                Fpc_interp.Interp.boot ~image ~engine ~instance:"Main"
                  ~proc:"main" ~args:[] ()
              in
              ignore (Fpc_sched.Sched.run ~policy ~step ~fuel:600 st);
              Alcotest.(check bool)
                (name ^ ": processes left queued")
                true
                (Fpc_core.State.ready_count st > 0);
              Fpc_mesa.Image.clone_into ~arena:image pristine;
              Fpc_core.State.reset st;
              Fpc_core.Transfer.start st ~instance:"Main" ~proc:"main" ~args:[];
              ignore (Fpc_sched.Sched.run ~policy ~step ~fuel:5_000_000 st);
              let fresh = ring_run ~policy ~name ~engine source in
              if observe st <> observe fresh then
                Alcotest.failf "%s: the reset machine's rerun differs" name)
            [ false; true ])
        [
          (forking_workers 12, Fpc_sched.Sched.Run_to_yield);
          (source_of ~seed:4 ~total:20 ~window:6, Fpc_sched.Sched.Preempt { quantum = 7 });
        ])
    engines

(* Under preempt:2 a bare [WHILE .. DO YIELD END] lines its YIELD up with
   the last step of every slice, and the generated workload's seed 11
   does the same.  The injected yield must not take the
   CPU back from the process that YIELD handed it to before that process
   has retired an instruction, or neither run ever ends. *)
let test_bare_wait_loop () =
  let policy = Fpc_sched.Sched.Preempt { quantum = 2 } in
  List.iter
    (fun (en, engine) ->
      let name = en ^ " preempt:2 bare wait" in
      check_forking ~name ~n:1
        (ring_run ~policy ~name ~engine (forking_workers ~bare:true 1)))
    engines

let test_preempt2_seed11_halts () =
  let policy = Fpc_sched.Sched.Preempt { quantum = 2 } in
  let engine = Fpc_core.Engine.i2 in
  let source = source_of ~seed:11 ~total:10 ~window:4 in
  let fp_i, _, _ = sched_run ~policy ~engine ~compiled:false source in
  let fp_c, _, _ = sched_run ~policy ~engine ~compiled:true source in
  let fp_y, _, _ = sched_run ~engine ~compiled:false source in
  if fp_i <> fp_c then Alcotest.fail "preempt:2 tiers diverged";
  let output (o, _, _, _, _, _) = o in
  Alcotest.(check (list int)) "preempt:2 output equals run-to-yield's"
    (output fp_y) (output fp_i)

let () =
  Alcotest.run "sched"
    [
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest determinism_prop;
          QCheck_alcotest.to_alcotest preempt_determinism_prop;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "policy strings" `Quick test_policy_strings;
          Alcotest.test_case "fuel exhaustion resumes" `Quick
            test_fuel_exhaustion_resumes;
          Alcotest.test_case "report shape" `Quick test_report_shape;
          Alcotest.test_case "preempt:2 bare wait loop halts" `Quick
            test_bare_wait_loop;
          Alcotest.test_case "preempt:2 sessions seed 11 halts" `Quick
            test_preempt2_seed11_halts;
        ] );
      ( "ring",
        [
          Alcotest.test_case "growth and FORK arguments" `Quick
            test_ring_growth_and_fork_args;
          Alcotest.test_case "wrap-around under preempt 2/3/7" `Quick
            test_ring_wraps_under_preempt;
          Alcotest.test_case "reset with processes queued" `Quick
            test_ring_reset_rerun;
        ] );
    ]
