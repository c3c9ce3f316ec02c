(* Tests for the workload machinery: distributions, synthetic traces,
   replayers. *)

let qtest = QCheck_alcotest.to_alcotest

let test_frame_distribution_p95 () =
  let h = Fpc_workload.Distributions.sample_histogram ~seed:1 ~samples:50_000 in
  let frac =
    Fpc_util.Histogram.fraction_le h Fpc_workload.Distributions.paper_frame_p95_words
  in
  Alcotest.(check bool) "95% below 80 bytes (+-2%)" true (frac > 0.93 && frac < 0.97);
  Alcotest.(check bool) "has a large tail" true (Fpc_util.Histogram.max_value h > 200)

let test_trace_depth_bounds () =
  let profile = { Fpc_workload.Synthetic.default_profile with max_depth = 12 } in
  let trace = Fpc_workload.Synthetic.generate ~seed:2 ~profile ~length:20_000 () in
  let depth = ref 1 in
  List.iter
    (fun (e : Fpc_workload.Synthetic.event) ->
      (match e with
      | Call _ -> incr depth
      | Return -> decr depth
      | Coroutine_switch | Process_switch -> ());
      Alcotest.(check bool) "depth in bounds" true (!depth >= 0 && !depth <= 12))
    trace

let test_trace_deterministic () =
  let a = Fpc_workload.Synthetic.generate ~seed:3 ~length:1000 () in
  let b = Fpc_workload.Synthetic.generate ~seed:3 ~length:1000 () in
  Alcotest.(check bool) "same seed, same trace" true (a = b);
  let c = Fpc_workload.Synthetic.generate ~seed:4 ~length:1000 () in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_trace_rates () =
  let profile =
    { Fpc_workload.Synthetic.default_profile with coroutine_rate = 0.1 }
  in
  let trace = Fpc_workload.Synthetic.generate ~seed:5 ~profile ~length:50_000 () in
  let co =
    List.length
      (List.filter (fun e -> e = Fpc_workload.Synthetic.Coroutine_switch) trace)
  in
  let rate = float_of_int co /. 50_000.0 in
  (* Leaf call/return pairs consume two slots per draw, diluting the
     nominal per-draw rate by roughly 1/(1+leaf_rate). *)
  Alcotest.(check bool) "coroutine rate in the diluted band" true
    (rate > 0.05 && rate < 0.12)

let test_replay_banks_monotone () =
  (* More banks never makes the over/underflow rate worse. *)
  let trace = Fpc_workload.Synthetic.generate ~seed:6 ~length:30_000 () in
  let rate banks = (Fpc_workload.Replay.replay_banks ~banks trace).bk_rate in
  let r2 = rate 2 and r4 = rate 4 and r8 = rate 8 in
  Alcotest.(check bool) "2 >= 4 >= 8" true (r2 >= r4 && r4 >= r8);
  Alcotest.(check bool) "8 banks under 1%" true (r8 < 0.01)

let test_replay_return_stack_perfect_when_deep () =
  (* With a stack deeper than the trace ever goes, every return is fast. *)
  let profile = { Fpc_workload.Synthetic.default_profile with max_depth = 10 } in
  let trace = Fpc_workload.Synthetic.generate ~seed:7 ~profile ~length:10_000 () in
  let r = Fpc_workload.Replay.replay_return_stack ~depth:16 trace in
  Alcotest.(check int) "no slow returns" 0 r.rs_slow_returns;
  Alcotest.(check (float 0.0001)) "fraction 1" 1.0 r.rs_fast_fraction

let test_replay_return_stack_coroutines_flush () =
  let profile =
    { Fpc_workload.Synthetic.default_profile with coroutine_rate = 0.05 }
  in
  let trace = Fpc_workload.Synthetic.generate ~seed:8 ~profile ~length:10_000 () in
  let r = Fpc_workload.Replay.replay_return_stack ~depth:16 trace in
  Alcotest.(check bool) "flushes happen" true (r.rs_flushes > 0);
  Alcotest.(check bool) "fast fraction degrades" true (r.rs_fast_fraction < 1.0)

let test_replay_allocator_refs () =
  let trace = Fpc_workload.Synthetic.generate ~seed:9 ~length:30_000 () in
  let r = Fpc_workload.Replay.replay_allocator trace in
  Alcotest.(check bool) "alloc ~3 refs" true
    (r.al_mem_refs_per_alloc >= 3.0 && r.al_mem_refs_per_alloc < 3.3);
  Alcotest.(check (float 0.001)) "free exactly 4" 4.0 r.al_mem_refs_per_free;
  Alcotest.(check bool) "fragmentation near 10%" true
    (r.al_fragmentation > 0.02 && r.al_fragmentation < 0.2)

let test_suite_programs_compile_everywhere () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun conv ->
          match Fpc_compiler.Compile.image ~convention:conv src with
          | Ok _ -> ()
          | Error m -> Alcotest.fail (Printf.sprintf "%s: %s" name m))
        [
          Fpc_compiler.Convention.external_;
          Fpc_compiler.Convention.direct;
          Fpc_compiler.Convention.short_direct;
          Fpc_compiler.Convention.banked ();
        ])
    Fpc_workload.Programs.all

let prop_depth_profile_consistent =
  QCheck.Test.make ~count:20 ~name:"trace: depth profile max respects bound"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let profile = { Fpc_workload.Synthetic.default_profile with max_depth = 20 } in
      let trace = Fpc_workload.Synthetic.generate ~seed ~profile ~length:5_000 () in
      Fpc_util.Histogram.max_value (Fpc_workload.Synthetic.depth_profile trace) <= 20)

(* OCaml reference implementations for the newer suite programs, checked
   against the machine on every engine. *)

let ref_hanoi () =
  let moves = ref 0 in
  let rec solve n = if n > 0 then begin solve (n - 1); incr moves; solve (n - 1) end in
  solve 7;
  [ !moves ]

let ref_bsearch () =
  let a = Array.init 64 (fun i -> (i * 3) + 1) in
  let out = ref [] and probes = ref 0 in
  let target = ref 0 in
  while !target < 192 do
    let lo = ref 0 and hi = ref 63 and found = ref false in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      incr probes;
      if a.(mid) = !target then begin
        found := true;
        lo := !hi + 1
      end
      else if a.(mid) < !target then lo := mid + 1
      else hi := mid - 1
    done;
    if !found then out := !target :: !out;
    target := !target + 37
  done;
  List.rev (!probes :: !out)

let ref_matmul () =
  let a = Array.init 36 (fun i -> i mod 7) in
  let b = Array.init 36 (fun i -> i * 5 mod 11) in
  let c = Array.make 36 0 in
  for r = 0 to 5 do
    for col = 0 to 5 do
      let acc = ref 0 in
      for k = 0 to 5 do
        acc := !acc + (a.((r * 6) + k) * b.((k * 6) + col))
      done;
      c.((r * 6) + col) <- !acc
    done
  done;
  let sum = Array.fold_left (fun s v -> (s + v) mod 10000) 0 c in
  [ sum; c.(0); c.(35) ]

let ref_knapsack () =
  let weight = Array.init 8 (fun i -> (i * 7 mod 9) + 1) in
  let value = Array.init 8 (fun i -> (i * 11 mod 13) + 2) in
  let rec best i cap =
    if i = 8 then 0
    else
      let skip = best (i + 1) cap in
      if weight.(i) > cap then skip
      else max skip (value.(i) + best (i + 1) (cap - weight.(i)))
  in
  [ best 0 15 ]

let test_new_programs_match_ocaml () =
  List.iter
    (fun (program, expected) ->
      List.iter
        (fun engine ->
          let convention = Fpc_compiler.Convention.for_engine engine in
          let src = Fpc_workload.Programs.find program in
          match Fpc_compiler.Compile.image ~convention src with
          | Error m -> Alcotest.fail m
          | Ok image ->
            let st =
              Fpc_interp.Interp.run_program ~image ~engine ~instance:"Main"
                ~proc:"main" ~args:[] ()
            in
            Alcotest.(check (list int)) program expected (Fpc_core.State.output st))
        [ Fpc_core.Engine.i1; Fpc_core.Engine.i2; Fpc_core.Engine.i3 ();
          Fpc_core.Engine.i4 () ])
    [
      ("hanoi", ref_hanoi ());
      ("bsearch", ref_bsearch ());
      ("matmul", ref_matmul ());
      ("knapsack", ref_knapsack ());
    ]

(* The predecode table must be an exact mirror of live decoding: for
   every byte position of every suite image, the table and
   [Opcode.decode] agree on (op, len), and positions that do not decode
   (the table's fallback contract) are exactly those where live decoding
   traps.  Clones must share the source image's table, not rebuild it. *)
let test_predecode_matches_live_decode () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (cname, conv) ->
          match Fpc_compiler.Compile.image ~convention:conv src with
          | Error m -> Alcotest.fail (Printf.sprintf "%s: %s" name m)
          | Ok image ->
            let pd = Fpc_mesa.Image.predecode image in
            let lo = Fpc_isa.Predecode.base pd
            and hi = Fpc_isa.Predecode.limit pd in
            if hi <= lo then
              Alcotest.failf "%s/%s: empty predecode range" name cname;
            let fetch pc =
              Fpc_machine.Memory.peek_code_byte image.Fpc_mesa.Image.mem
                ~code_base:0 ~pc
            in
            for pc = lo to hi - 1 do
              let table_len = Fpc_isa.Predecode.len_at pd pc in
              match Fpc_isa.Opcode.decode ~fetch ~pc with
              | exception Invalid_argument _ ->
                if table_len <> 0 then
                  Alcotest.failf
                    "%s/%s pc=%d: live decode traps but table says len=%d"
                    name cname pc table_len
              | op, len ->
                if table_len <> len then
                  Alcotest.failf "%s/%s pc=%d: len %d (table) <> %d (live)"
                    name cname pc table_len len;
                if Fpc_isa.Predecode.op_at pd pc <> op then
                  Alcotest.failf "%s/%s pc=%d: table op disagrees with live"
                    name cname pc
            done;
            (* outside the covered range the table always defers *)
            Alcotest.(check int) "below range" 0
              (Fpc_isa.Predecode.len_at pd (lo - 1));
            Alcotest.(check int) "above range" 0
              (Fpc_isa.Predecode.len_at pd hi);
            (* a clone shares the table instead of rebuilding it *)
            let clone = Fpc_mesa.Image.clone image in
            Alcotest.(check bool) "clone shares the table" true
              (Fpc_mesa.Image.predecode clone == pd))
        [
          ("external", Fpc_compiler.Convention.external_);
          ("direct", Fpc_compiler.Convention.direct);
          ("short_direct", Fpc_compiler.Convention.short_direct);
          ("banked", Fpc_compiler.Convention.banked ());
        ])
    Fpc_workload.Programs.all

let () =
  Alcotest.run "workload"
    [
      ( "distributions",
        [ Alcotest.test_case "p95 at 80 bytes" `Quick test_frame_distribution_p95 ] );
      ( "synthetic",
        [
          Alcotest.test_case "depth bounds" `Quick test_trace_depth_bounds;
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "event rates" `Quick test_trace_rates;
          qtest prop_depth_profile_consistent;
        ] );
      ( "replay",
        [
          Alcotest.test_case "banks monotone" `Quick test_replay_banks_monotone;
          Alcotest.test_case "deep return stack perfect" `Quick
            test_replay_return_stack_perfect_when_deep;
          Alcotest.test_case "coroutines flush" `Quick
            test_replay_return_stack_coroutines_flush;
          Alcotest.test_case "allocator refs" `Quick test_replay_allocator_refs;
        ] );
      ( "programs",
        [
          Alcotest.test_case "compile under all conventions" `Quick
            test_suite_programs_compile_everywhere;
          Alcotest.test_case "new programs match OCaml references" `Quick
            test_new_programs_match_ocaml;
          Alcotest.test_case "predecode mirrors live decode" `Quick
            test_predecode_matches_live_decode;
        ] );
    ]
