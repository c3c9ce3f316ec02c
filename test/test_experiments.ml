(* The reproduction gate: every experiment runs, and its headline numbers
   land within the bands the paper's claims define.  This suite is the
   machine-checked version of EXPERIMENTS.md. *)

let results =
  lazy
    (List.map (fun (key, f) -> (key, f ())) Fpc_experiments.Registry.all)

let get key = List.assoc key (Lazy.force results)

let check_band ~what ~lo ~hi value =
  if value < lo || value > hi then
    Alcotest.failf "%s = %.4f outside [%.4f, %.4f]" what value lo hi

let headline key name = Fpc_experiments.Exp.headline (get key) name

let test_all_render () =
  List.iter
    (fun (key, r) ->
      let s = Fpc_experiments.Exp.render r in
      if String.length s < 100 then Alcotest.failf "%s: suspiciously short output" key;
      if r.Fpc_experiments.Exp.headlines = [] then
        Alcotest.failf "%s: no headlines" key)
    (Lazy.force results)

(* E1: >= 95% of typical call/returns at jump speed under I4; none under
   I1/I2 (every call touches storage there). *)
let test_e1 () =
  check_band ~what:"I4 typical fast fraction" ~lo:0.95 ~hi:1.0
    (headline "fastpath" "fast_fraction_I4_typical");
  check_band ~what:"I2 fast fraction" ~lo:0.0 ~hi:0.0
    (headline "fastpath" "fast_fraction_I2_typical")

(* E2: the paper's worked example saves about one-third. *)
let test_e2 () =
  check_band ~what:"(3,10,32) saving" ~lo:0.33 ~hi:0.37
    (headline "indirection_space" "paper_example_saved_fraction");
  check_band ~what:"I1 tables wider than I2" ~lo:1.05 ~hi:3.0
    (headline "indirection_space" "measured_i1_over_i2_table_words")

(* E3: the chain shortens monotonically: external > local > direct-IFU >
   banked-direct (which is within rounding of zero). *)
let test_e3 () =
  let ext = headline "indirection_chain" "i2_external_refs_per_call" in
  let local = headline "indirection_chain" "i2_local_refs_per_call" in
  let i3 = headline "indirection_chain" "i3_direct_refs_per_call" in
  let i4 = headline "indirection_chain" "i4_direct_refs_per_call" in
  if not (ext > local && local > i3 && i3 > i4) then
    Alcotest.failf "chain not monotone: %.1f %.1f %.1f %.3f" ext local i3 i4;
  check_band ~what:"I4 refs/call" ~lo:0.0 ~hi:0.05 i4

(* E4: 3 refs to allocate, 4 to free, ~10% fragmentation, <=20 classes at
   ~35% growth. *)
let test_e4 () =
  check_band ~what:"refs/alloc" ~lo:3.0 ~hi:3.1 (headline "frame_alloc" "refs_per_alloc");
  check_band ~what:"refs/free" ~lo:4.0 ~hi:4.0 (headline "frame_alloc" "refs_per_free");
  check_band ~what:"fragmentation" ~lo:0.03 ~hi:0.15
    (headline "frame_alloc" "fragmentation_at_1.2");
  check_band ~what:"classes" ~lo:1.0 ~hi:20.0 (headline "frame_alloc" "classes_at_1.35")

(* E5: +30% for one DFC site; SDFC parity at one site, +50% at two. *)
let test_e5 () =
  check_band ~what:"dfc 1 site" ~lo:1.30 ~hi:1.37
    (headline "directcall_space" "dfc_ratio_1_site");
  check_band ~what:"sdfc 1 site" ~lo:1.0 ~hi:1.0
    (headline "directcall_space" "sdfc_ratio_1_site");
  check_band ~what:"sdfc 2 sites" ~lo:1.5 ~hi:1.5
    (headline "directcall_space" "sdfc_ratio_2_sites")

(* E6: rare over/underflow at 4 banks, <1% at 8 (one of the four is the
   stack bank, so our 4-bank point runs a little above the paper's). *)
let test_e6 () =
  check_band ~what:"4 banks" ~lo:0.0 ~hi:0.12
    (headline "bank_overflow" "synthetic_rate_4_banks");
  check_band ~what:"8 banks" ~lo:0.0 ~hi:0.01
    (headline "bank_overflow" "synthetic_rate_8_banks")

(* E6's locality table, pinned row for row: depth p50 / p95 / max, run p95
   / max and runs <= 4 for every sequential suite program (engine I2) and
   the calibrated synthetic trace.  The run still open when a stream ends
   counts: deep's 202-return ascent, and isort's and bsearch's only run. *)
let test_e6_locality () =
  Alcotest.(check (list (list string)))
    "locality rows"
    [
      [ "fib"; "9"; "12"; "14"; "5"; "14"; "93.8%" ];
      [ "ackermann"; "27"; "52"; "63"; "2"; "61"; "97.6%" ];
      [ "sieve"; "0"; "1"; "1"; "2"; "2"; "100.0%" ];
      [ "isort"; "0"; "0"; "0"; "1"; "1"; "100.0%" ];
      [ "callchain"; "2"; "3"; "3"; "3"; "3"; "100.0%" ];
      [ "leafcalls"; "0"; "1"; "1"; "1"; "2"; "100.0%" ];
      [ "mixed"; "1"; "2"; "2"; "1"; "2"; "100.0%" ];
      [ "deep"; "100"; "191"; "201"; "202"; "202"; "0.0%" ];
      [ "hanoi"; "7"; "8"; "8"; "5"; "9"; "93.8%" ];
      [ "bsearch"; "0"; "0"; "0"; "1"; "1"; "100.0%" ];
      [ "matmul"; "0"; "1"; "1"; "1"; "2"; "100.0%" ];
      [ "knapsack"; "7"; "9"; "9"; "7"; "10"; "79.4%" ];
      [ "fibleaf"; "0"; "1"; "1"; "1"; "2"; "100.0%" ];
      [ "ackerlite"; "0"; "1"; "1"; "1"; "2"; "100.0%" ];
      [ "xleaf"; "0"; "1"; "1"; "1"; "2"; "100.0%" ];
      [ "polyleaf"; "0"; "1"; "1"; "1"; "2"; "100.0%" ];
      [ "synthetic (calibrated)"; "8"; "10"; "14"; "2"; "6"; "100.0%" ];
    ]
    (Fpc_experiments.E06_bank_overflow.locality_rows ())

(* E7: 95% of frames below 80 bytes; effective allocation ~0.8x fast. *)
let test_e7 () =
  check_band ~what:"<=80B fraction" ~lo:0.93 ~hi:0.97
    (headline "frame_sizes" "fraction_le_80_bytes");
  check_band ~what:"effective speed" ~lo:0.6 ~hi:1.0
    (headline "frame_sizes" "effective_alloc_speed")

(* E8: renaming moves zero words. *)
let test_e8 () =
  check_band ~what:"I4 moved/call" ~lo:0.0 ~hi:0.0
    (headline "arg_passing" "i4_arg_words_moved_per_call");
  check_band ~what:"I2 stores words" ~lo:0.5 ~hi:5.0
    (headline "arg_passing" "i2_arg_words_per_call")

(* E9: half or more of data references are to locals; banks win. *)
let test_e9 () =
  check_band ~what:"local share" ~lo:0.5 ~hi:1.0
    (headline "bank_vs_cache" "mean_local_share");
  check_band ~what:"speedup" ~lo:1.2 ~hi:10.0 (headline "bank_vs_cache" "mean_speedup")

(* E10: one call or return per ~10 instructions. *)
let test_e10 () =
  check_band ~what:"instr/transfer" ~lo:6.0 ~hi:18.0
    (headline "call_density" "instructions_per_transfer")

(* E11: heavy coroutine traffic degrades the fast path but never breaks
   anything; LIFO reservation exceeds the heap's need. *)
let test_e11 () =
  check_band ~what:"engines agree" ~lo:1.0 ~hi:1.0 (headline "nonlifo" "engines_agree");
  check_band ~what:"no-coroutine fast fraction" ~lo:0.85 ~hi:1.0
    (headline "nonlifo" "fast_fraction_no_coroutines");
  let lifo = headline "nonlifo" "lifo_over_heap_8_activities" in
  check_band ~what:"LIFO over heap" ~lo:1.2 ~hi:100.0 lifo

(* E12: both policies preserve behaviour; diversion is the cheaper one. *)
let test_e12 () =
  check_band ~what:"outputs agree" ~lo:1.0 ~hi:1.0 (headline "ptr_locals" "outputs_agree");
  let flagged = headline "ptr_locals" "flagged_overhead" in
  let divert = headline "ptr_locals" "divert_overhead" in
  if divert >= flagged then
    Alcotest.failf "diversion (%.2f) should beat flagged flushing (%.2f)" divert flagged

(* E13: everything in an Alto-sized image is within short reach. *)
let test_e13 () =
  check_band ~what:"short fraction" ~lo:1.0 ~hi:1.0
    (headline "short_reach" "measured_short_fraction")

(* E14: zero behavioural differences anywhere. *)
let test_e14 () =
  check_band ~what:"program mismatches" ~lo:0.0 ~hi:0.0
    (headline "equivalence" "program_mismatches");
  check_band ~what:"relocation failures" ~lo:0.0 ~hi:0.0
    (headline "equivalence" "relocation_failures");
  check_band ~what:"instances ok" ~lo:1.0 ~hi:1.0 (headline "equivalence" "instances_ok")

(* E16: the compiled tier is bit-identical and most instructions fuse. *)
let test_e16 () =
  check_band ~what:"tier mismatches" ~lo:0.0 ~hi:0.0 (headline "tier" "mismatches");
  check_band ~what:"fusion coverage %" ~lo:50.0 ~hi:100.0
    (headline "tier" "fusion_coverage_pct")

(* E17: byte-identical outputs and meters across engines, tiers and
   policies; the frame heap needs a fraction of the LIFO per-session
   reservation; preemption makes the banked engines flush the return
   stack, but only a few times per hundred transfers. *)
let test_e17 () =
  check_band ~what:"output mismatches" ~lo:0.0 ~hi:0.0
    (headline "sessions" "output_mismatches");
  check_band ~what:"meter mismatches" ~lo:0.0 ~hi:0.0
    (headline "sessions" "meter_mismatches");
  check_band ~what:"I2 footprint ratio" ~lo:0.05 ~hi:0.6
    (headline "sessions" "footprint_ratio_i2_10k");
  check_band ~what:"I1 footprint ratio" ~lo:0.05 ~hi:0.6
    (headline "sessions" "footprint_ratio_i1_10k");
  check_band ~what:"I4 preempt flush rate" ~lo:0.001 ~hi:0.5
    (headline "sessions" "i4_rs_flush_per_xfer_preempt")

(* E18: fusing through leaf calls changes nothing observable — on the
   suite, on call-dense synthetic programs, and across forced mid-run
   relinks — while the fused sites cover essentially every call on the
   call-dense kernels. *)
let test_e18 () =
  check_band ~what:"fused-call mismatches" ~lo:0.0 ~hi:0.0
    (headline "calls" "mismatches");
  check_band ~what:"fused-call coverage %" ~lo:80.0 ~hi:100.0
    (headline "calls" "fused_call_coverage_pct");
  check_band ~what:"warm lazy translations" ~lo:0.0 ~hi:0.0
    (headline "calls" "lazy_warm_translations")

(* E19: devirtualization changes no output and keeps both tiers
   bit-identical, while the cross-module kernels retire essentially no
   late-bound calls and the storage-reference meter drops. *)
let test_e19 () =
  check_band ~what:"devirt mismatches" ~lo:0.0 ~hi:0.0
    (headline "devirt" "mismatches");
  check_band ~what:"dynamic devirtualization %" ~lo:80.0 ~hi:100.0
    (headline "devirt" "devirt_dynamic_pct");
  check_band ~what:"refs saved %" ~lo:0.5 ~hi:50.0
    (headline "devirt" "refs_saved_pct");
  check_band ~what:"sites rewritten %" ~lo:80.0 ~hi:100.0
    (headline "devirt" "sites_rewritten_pct")

let () =
  let case name f = Alcotest.test_case name `Slow f in
  Alcotest.run "experiments"
    [
      ( "reproduction",
        [
          case "all experiments render" test_all_render;
          case "E1 jump-speed calls" test_e1;
          case "E2 indirection space" test_e2;
          case "E3 indirection chain" test_e3;
          case "E4 frame allocator" test_e4;
          case "E5 directcall space" test_e5;
          case "E6 bank overflow" test_e6;
          case "E6 locality table" test_e6_locality;
          case "E7 frame sizes" test_e7;
          case "E8 argument passing" test_e8;
          case "E9 bank vs cache" test_e9;
          case "E10 call density" test_e10;
          case "E11 non-LIFO" test_e11;
          case "E12 pointers to locals" test_e12;
          case "E13 short reach" test_e13;
          case "E14 equivalence" test_e14;
          case "E16 compiled tier" test_e16;
          case "E17 session scheduler" test_e17;
          case "E18 cross-call fusion" test_e18;
          case "E19 link-time devirtualization" test_e19;
        ] );
    ]
