(* Link-time devirtualization (lib/cfa): the pass may only rewrite
   provably single-target sites, so a devirtualized image must produce
   byte-identical OUTPUT on every engine and both execution tiers — while
   its meters are allowed (expected, on the rewritten kernels) to drop.
   Abstention is part of the contract too: a site that cannot be proven
   single-target must be left as the late-bound EFC it was. *)

let engines () =
  [
    ("i1", Fpc_core.Engine.i1);
    ("i2", Fpc_core.Engine.i2);
    ("i3", Fpc_core.Engine.i3 ());
    ("i4", Fpc_core.Engine.i4 ());
  ]

let image_for ~engine ~devirt source =
  match Fpc_compiler.Compile.image_for_engine ~engine ~devirt source with
  | Ok image -> image
  | Error m -> Alcotest.fail ("compile: " ^ m)

let boot ?tracer ~engine image =
  Fpc_interp.Interp.boot ?tracer ~image ~engine ~instance:"Main" ~proc:"main"
    ~args:[] ()

(* Everything observable about a finished run (same record test_tier
   compares): outcome plus the metrics it does not fold in. *)
let observe (st : Fpc_core.State.t) =
  let m = st.metrics in
  ( Fpc_interp.Interp.outcome st,
    ( m.jumps_taken,
      m.local_refs,
      m.global_refs,
      m.indirect_refs,
      m.arg_words_stored,
      m.arg_words_renamed,
      m.call_depth ) )

let interp_run ~engine ~max_steps image =
  let st = boot ~engine image in
  Fpc_interp.Interp.run ~max_steps st;
  observe st

let tier_run ~engine ~max_steps image =
  let st = boot ~engine image in
  let tier, _ = Fpc_tier.Tier.of_image image in
  Fpc_tier.Tier.run ~max_steps tier st;
  observe st

let profile_of runner ~engine image =
  let p = Fpc_interp.Profiler.create ~image ~engine () in
  let st = boot ~tracer:p.Fpc_interp.Profiler.sink ~engine image in
  runner image st;
  let o = Fpc_interp.Interp.outcome st in
  ignore
    (Fpc_trace.Profile.finish p.Fpc_interp.Profiler.profile
       ~cycles:o.Fpc_interp.Interp.o_cycles
       ~mem_refs:o.Fpc_interp.Interp.o_mem_refs);
  (observe st, Fpc_trace.Profile.summary p.Fpc_interp.Profiler.profile)

let devirt_stats_of image =
  match image.Fpc_mesa.Image.dir.Fpc_mesa.Image.devirt with
  | Some d -> d
  | None -> Alcotest.fail "image carries no devirt stats"

(* ---- the pass proves and rewrites the whole multi-module suite ---- *)

let test_suite_rewrites () =
  List.iter
    (fun (prog, sites) ->
      let src = Fpc_workload.Programs.find prog in
      let image = image_for ~engine:Fpc_core.Engine.i2 ~devirt:true src in
      let d = devirt_stats_of image in
      Alcotest.(check int) (prog ^ ": sites") sites d.Fpc_mesa.Image.dv_sites;
      Alcotest.(check int) (prog ^ ": proven") sites d.dv_proven;
      Alcotest.(check int) (prog ^ ": rewritten") sites d.dv_rewritten;
      Alcotest.(check int) (prog ^ ": abstained") 0 d.dv_abstained;
      Alcotest.(check bool) (prog ^ ": store-safe") true
        (Fpc_cfa.Cfa.image_store_safe image))
    [ ("callchain", 5); ("leafcalls", 1); ("xleaf", 2) ]

(* The store-hazard scan's verdict and the pass's outcome on every suite
   program, as recorded before the scan read its steps off
   [Opcode.effects]: deriving the scan from the table moved no verdict.
   (name, store-safe, sites, rewritten, abstained) *)
let suite_verdicts =
  [
    ("fib", true, 0, 0, 0); ("ackermann", true, 0, 0, 0); ("sieve", false, 0, 0, 0);
    ("isort", false, 0, 0, 0); ("callchain", true, 5, 5, 0); ("leafcalls", true, 1, 1, 0);
    ("coroutine", true, 0, 0, 0); ("processes", true, 0, 0, 0); ("mixed", false, 0, 0, 0);
    ("deep", true, 0, 0, 0); ("hanoi", true, 0, 0, 0); ("bsearch", false, 0, 0, 0);
    ("matmul", false, 0, 0, 0); ("knapsack", false, 0, 0, 0); ("fibleaf", true, 0, 0, 0);
    ("ackerlite", true, 0, 0, 0); ("xleaf", true, 2, 2, 0); ("polyleaf", true, 0, 0, 0);
  ]

let test_suite_verdicts () =
  Alcotest.(check (list string)) "every suite program has a verdict"
    Fpc_workload.Programs.names
    (List.map (fun (p, _, _, _, _) -> p) suite_verdicts);
  List.iter
    (fun (prog, safe, sites, rewritten, abstained) ->
      let image =
        image_for ~engine:Fpc_core.Engine.i2 ~devirt:true (Fpc_workload.Programs.find prog)
      in
      let d = devirt_stats_of image in
      Alcotest.(check bool) (prog ^ ": store-safe") safe (Fpc_cfa.Cfa.image_store_safe image);
      Alcotest.(check int) (prog ^ ": sites") sites d.Fpc_mesa.Image.dv_sites;
      Alcotest.(check int) (prog ^ ": rewritten") rewritten d.dv_rewritten;
      Alcotest.(check int) (prog ^ ": abstained") abstained d.dv_abstained)
    suite_verdicts

(* ...and that rewriting actually pays: fewer storage references for the
   same output on a call-dense cross-module kernel. *)
let test_refs_drop () =
  let src = Fpc_workload.Programs.find "xleaf" in
  let engine = Fpc_core.Engine.i2 in
  let (base_o, _) =
    interp_run ~engine ~max_steps:2_000_000
      (image_for ~engine ~devirt:false src)
  in
  let (dv_o, _) =
    interp_run ~engine ~max_steps:2_000_000
      (image_for ~engine ~devirt:true src)
  in
  Alcotest.(check (list int)) "same output"
    base_o.Fpc_interp.Interp.o_output dv_o.Fpc_interp.Interp.o_output;
  Alcotest.(check bool) "refs drop" true
    (dv_o.Fpc_interp.Interp.o_mem_refs < base_o.Fpc_interp.Interp.o_mem_refs)

(* ---- abstention: unprovable sites stay late-bound ---- *)

(* A runtime-indexed array store anywhere in the image makes the
   store-hazard scan abstain wholesale: the site below is a perfectly
   ordinary external call, but nothing may be rewritten. *)
let hazard_src =
  {|
MODULE Lib;
PROC inc(x: INT): INT =
  RETURN x + 1;
END;
END;

MODULE Main;
IMPORT Lib;
PROC main() =
  VAR a: ARRAY 8 OF INT;
  VAR i: INT := 0;
  WHILE i < 8 DO
    a[i] := Lib.inc(i);
    i := i + 1;
  END;
  OUTPUT a[3] + a[7];
END;
END;
|}

let test_abstains_on_store_hazard () =
  let engine = Fpc_core.Engine.i2 in
  let image = image_for ~engine ~devirt:true hazard_src in
  Alcotest.(check bool) "image not store-safe" false
    (Fpc_cfa.Cfa.image_store_safe image);
  let d = devirt_stats_of image in
  Alcotest.(check bool) "site counted" true (d.Fpc_mesa.Image.dv_sites > 0);
  Alcotest.(check int) "nothing proven" 0 d.dv_proven;
  Alcotest.(check int) "nothing rewritten" 0 d.dv_rewritten;
  Alcotest.(check int) "all abstained" d.Fpc_mesa.Image.dv_sites d.dv_abstained;
  (* the untouched padded site still runs correctly, on both tiers *)
  let base =
    interp_run ~engine ~max_steps:100_000
      (image_for ~engine ~devirt:false hazard_src)
  in
  let padded = interp_run ~engine ~max_steps:100_000 image in
  let tiered =
    tier_run ~engine ~max_steps:100_000
      (image_for ~engine ~devirt:true hazard_src)
  in
  let ((o1, _), (o2, _)) = (base, padded) in
  Alcotest.(check (list int)) "padded output"
    o1.Fpc_interp.Interp.o_output o2.Fpc_interp.Interp.o_output;
  Alcotest.(check bool) "tier == interp on abstained image" true (padded = tiered)

(* A multi-instance target has no DIRECTCALL header and no unique
   binding, so its sites must abstain even in a store-safe image. *)
let multi_instance_src =
  {|
MODULE Lib;
PROC inc(x: INT): INT =
  RETURN x + 1;
END;
END;

MODULE Main;
IMPORT Lib;
PROC main() =
  OUTPUT Lib.inc(41);
END;
END;
|}

let test_abstains_on_multi_instance () =
  let convention = Fpc_compiler.Convention.external_ in
  match
    Fpc_compiler.Compile.image ~convention ~devirt:true
      ~extra_instances:[ "Lib" ] multi_instance_src
  with
  | Error m -> Alcotest.fail m
  | Ok image ->
    Alcotest.(check bool) "store-safe" true (Fpc_cfa.Cfa.image_store_safe image);
    let d = devirt_stats_of image in
    Alcotest.(check int) "one site" 1 d.Fpc_mesa.Image.dv_sites;
    Alcotest.(check int) "not proven" 0 d.dv_proven;
    Alcotest.(check int) "not rewritten" 0 d.dv_rewritten;
    let st =
      Fpc_interp.Interp.boot ~image ~engine:Fpc_core.Engine.i2 ~instance:"Main"
        ~proc:"main" ~args:[] ()
    in
    Fpc_interp.Interp.run ~max_steps:100_000 st;
    Alcotest.(check (list int)) "still answers" [ 42 ]
      (Fpc_core.State.output st)

(* ---- the differential property: devirt is invisible to outputs and
        exact across tiers, engines and tracers ---- *)

let devirt_differential_prop =
  QCheck.Test.make ~count:30
    ~name:"devirtualized image: same output, tier == interp (all engines)"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 10_000))
    (fun seed ->
      (* every program carries injected cross-module late-bound calls;
         every third seed also tilts intra-module call-dense so rewritten
         and fusable sites coexist *)
      let leaf_call_rate = if seed mod 3 = 0 then 0.4 else 0.0 in
      let source =
        Fpc_workload.Synthetic.random_program ~leaf_call_rate
          ~late_bound_rate:0.5 ~seed ()
      in
      List.for_all
        (fun (en, engine) ->
          let (base_o, _) =
            interp_run ~engine ~max_steps:300_000
              (image_for ~engine ~devirt:false source)
          in
          let reference =
            interp_run ~engine ~max_steps:300_000
              (image_for ~engine ~devirt:true source)
          in
          let (dv_o, _) = reference in
          let tiered =
            tier_run ~engine ~max_steps:300_000
              (image_for ~engine ~devirt:true source)
          in
          if dv_o.Fpc_interp.Interp.o_output <> base_o.Fpc_interp.Interp.o_output
          then
            QCheck.Test.fail_reportf "seed %d: devirt changed output under %s"
              seed en
          else if tiered <> reference then
            QCheck.Test.fail_reportf "seed %d: tier diverged on devirt image under %s"
              seed en
          else begin
            (* traced runs deopt to the exact chain; profile included *)
            let r_traced =
              profile_of
                (fun _image st -> Fpc_interp.Interp.run ~max_steps:300_000 st)
                ~engine
                (image_for ~engine ~devirt:true source)
            in
            let g_traced =
              profile_of
                (fun image st ->
                  let tier, _ = Fpc_tier.Tier.of_image image in
                  Fpc_tier.Tier.run ~max_steps:300_000 tier st)
                ~engine
                (image_for ~engine ~devirt:true source)
            in
            if g_traced <> r_traced then
              QCheck.Test.fail_reportf
                "seed %d: traced run diverged on devirt image under %s" seed en
            else true
          end)
        (engines ()))

(* ---- arena reuse: dirty-page reset + I1 link replay + operand patches
        compose on a devirtualized image ---- *)

(* The regression this pins: an arena slot resets its image by blitting
   back only dirtied pages and then replaying I1's link-table installs.
   With devirtualization the pristine's code bytes include operand
   patches; if the slot were keyed or reset against the late-bound
   variant, the replay would reinstall over the wrong bytes.  Three
   back-to-back acquisitions must therefore be bit-identical. *)
let test_arena_reuse_devirt () =
  let engine = Fpc_core.Engine.i1 in
  let convention = Fpc_compiler.Convention.for_engine engine in
  let source = Fpc_workload.Programs.find "callchain" in
  let pristine =
    match Fpc_compiler.Compile.image ~convention ~devirt:true source with
    | Ok i -> i
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "pristine rewritten" true
    ((devirt_stats_of pristine).Fpc_mesa.Image.dv_rewritten > 0);
  let arena = Fpc_svc.Arena.create () in
  let run () =
    let slot =
      Fpc_svc.Arena.acquire arena ~key:"callchain+dv" ~engine ~engine_name:"i1"
        ~pristine ()
    in
    let st = Fpc_svc.Arena.checkout slot in
    Fpc_core.Transfer.start st ~instance:"Main" ~proc:"main" ~args:[];
    Fpc_interp.Interp.run ~max_steps:2_000_000 st;
    observe st
  in
  let first = run () in
  let second = run () in
  let third = run () in
  Alcotest.(check bool) "second acquisition identical" true (second = first);
  Alcotest.(check bool) "third acquisition identical" true (third = first);
  let s = Fpc_svc.Arena.stats arena in
  Alcotest.(check int) "slots actually reused" 2 s.Fpc_svc.Arena.hits;
  (* ...and against a fresh clone, to rule out a stable-but-wrong reset *)
  let fresh =
    let image = Fpc_mesa.Image.clone pristine in
    let st =
      Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main"
        ~args:[] ()
    in
    Fpc_interp.Interp.run ~max_steps:2_000_000 st;
    observe st
  in
  Alcotest.(check bool) "reused slot == fresh clone" true (first = fresh)

(* The pool-level composition: devirt-on and devirt-off jobs for the same
   program interleave on one worker (one arena), so their slots — keyed by
   different image variants — must never alias. *)
let test_pool_interleaves_variants () =
  let spec devirt =
    Fpc_svc.Job.spec ~engine:"i1" ~devirt (Fpc_svc.Job.Suite "callchain")
  in
  let specs = [ spec true; spec false; spec true; spec false; spec true ] in
  let results, _metrics = Fpc_svc.Pool.run_jobs ~domains:1 specs in
  let outputs =
    List.map
      (fun (r : Fpc_svc.Job.result) ->
        match r.outcome with
        | Fpc_svc.Job.Output ws -> ws
        | Fpc_svc.Job.Failed (_, m) -> Alcotest.fail ("job failed: " ^ m))
      results
  in
  (match outputs with
  | first :: rest ->
    List.iter
      (fun ws -> Alcotest.(check (list int)) "same output" first ws)
      rest
  | [] -> Alcotest.fail "no results");
  let refs_of i = (List.nth results i).Fpc_svc.Job.stats.Fpc_svc.Job.mem_refs in
  Alcotest.(check bool) "devirt jobs take fewer refs" true
    (refs_of 0 < refs_of 1);
  Alcotest.(check int) "repeat devirt job exact" (refs_of 0) (refs_of 2);
  Alcotest.(check int) "repeat baseline job exact" (refs_of 1) (refs_of 3);
  Alcotest.(check int) "third devirt job exact" (refs_of 0) (refs_of 4)

let () =
  Alcotest.run "cfa"
    [
      ( "rewrite",
        [
          Alcotest.test_case "multi-module suite fully proven" `Quick
            test_suite_rewrites;
          Alcotest.test_case "storage refs drop on xleaf" `Quick test_refs_drop;
          Alcotest.test_case "suite verdicts unchanged" `Quick test_suite_verdicts;
        ] );
      ( "abstention",
        [
          Alcotest.test_case "store hazard abstains wholesale" `Quick
            test_abstains_on_store_hazard;
          Alcotest.test_case "multi-instance target abstains" `Quick
            test_abstains_on_multi_instance;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest devirt_differential_prop ] );
      ( "arena",
        [
          Alcotest.test_case "slot reuse composes with patches" `Quick
            test_arena_reuse_devirt;
          Alcotest.test_case "pool interleaves image variants" `Quick
            test_pool_interleaves_variants;
        ] );
    ]
