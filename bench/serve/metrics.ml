(* Every metric the benchmark reports: its unit, which way is better, for
   end-to-end metrics the bound by which it may worsen, and for per-layer
   ones the end-to-end metric and workload it should move.  The [gated]
   ones are those BENCHMARK.json lists, which a change is judged by; the
   smoke run checks that the file agrees with this table. *)

type better = Higher | Lower

type spec = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** end-to-end only: the share of the baseline median by which the
          metric may worsen; 0 for [fail_frac], where any increase counts *)
  gated : bool;
      (** listed in BENCHMARK.json.  Left out: [fail_frac] (0 when healthy),
          the latency and SLO metrics (in some ten-run sweeps on the 2-core
          recording host their spread came near or above the largest
          allowed bound, see README.md), and per-layer metrics some
          workload cannot have *)
  note : string;
}

let e2e =
  let m ?(gated = true) name unit_ better bound note =
    { name; unit_; better; bound = Some bound; gated; note }
  in
  [
    m "setup_s" "s" Lower 0.25
      "spawn -> listener up -> one serial pass over the warm-up lines; median of the set-ups, \
       x host speed";
    m "throughput_rps" "req/s" Higher 0.25
      "ok replies per second over the closed-loop saturation steps, / host speed";
    m ~gated:false "lat_p50_ms" "ms" Lower 0.25
      "reference steps (open loop, 0.3 x nominal x host speed), from when each request was \
       due, x host speed";
    m ~gated:false "lat_p99_ms" "ms" Lower 0.25 "reference steps, p99, x host speed";
    m ~gated:false "slo_rps" "req/s" Higher 0.25
      "achieved rate of the highest step that meets the SLO, / host speed";
    m ~gated:false "fail_frac" "ratio" Lower 0.0
      "(failed + shed + missing + wrong) / sent over saturation + reference";
    m "peak_rss_mb" "MB" Lower 0.15 "server VmHWM, median of the servers";
  ]

let per_layer =
  let m ?(gated = true) name unit_ better note =
    { name; unit_; better; bound = None; gated; note }
  in
  let hot = "throughput_rps, lat_p50_ms -> serve-hot" in
  let compile = "throughput_rps -> serve-cold; setup_s -> serve-hot" in
  [
    m "framing.line_ns" "ns" Lower "throughput_rps, lat_p99_ms -> serve-tiny";
    m "job.parse_us" "us" Lower "throughput_rps, lat_p99_ms -> serve-tiny";
    m "job.render_us" "us" Lower "throughput_rps, lat_p99_ms -> serve-tiny";
    m "job.render_bytes" "B" Lower "throughput_rps, lat_p99_ms -> serve-tiny";
    m "cache.hit_ratio" "ratio" Higher "throughput_rps, peak_rss_mb -> serve-cold";
    m ~gated:false "cache.hit_us" "us" Lower
      "throughput_rps, peak_rss_mb -> serve-cold (no hits there)";
    m "cache.miss_us" "us" Lower "throughput_rps, peak_rss_mb -> serve-cold";
    m "cache.evictions_per_kreq" "count" Lower "throughput_rps, peak_rss_mb -> serve-cold";
    m "lang.parse_us" "us" Lower compile;
    m "lang.typecheck_us" "us" Lower compile;
    m "compiler.lower_us" "us" Lower compile;
    m "compiler.codegen_us" "us" Lower compile;
    m "mesa.link_us" "us" Lower compile;
    m "cfa.devirt_us" "us" Lower compile;
    m "cfa.rewrite_ratio" "ratio" Higher compile;
    m "cfa.abstain_ratio" "ratio" Lower compile;
    m "arena.reset_us.p50" "us" Lower (hot ^ "; peak_rss_mb -> serve-cold");
    m "arena.reset_us.p99" "us" Lower (hot ^ "; peak_rss_mb -> serve-cold");
    m "arena.hit_ratio" "ratio" Higher (hot ^ "; peak_rss_mb -> serve-cold");
    m "arena.pages_per_job" "count" Lower (hot ^ "; peak_rss_mb -> serve-cold");
    m "tier.attach_us" "us" Lower (hot ^ " (no change expected on serve-tiny)");
    m "tier.lazy_per_job" "count" Lower (hot ^ " (no change expected on serve-tiny)");
    m "tier.run_us.p50" "us" Lower (hot ^ " (no change expected on serve-tiny)");
    m "tier.run_us.p99" "us" Lower (hot ^ " (no change expected on serve-tiny)");
    m "tier.instr_per_us" "1/us" Higher (hot ^ " (no change expected on serve-tiny)");
    m "tier.fused_call_ratio" "ratio" Higher (hot ^ " (no change expected on serve-tiny)");
    m "tier.deopt_ratio" "ratio" Lower (hot ^ " (no change expected on serve-tiny)");
    m "interp.run_us.p50" "us" Lower "reference only: does the tier trail the interpreter";
    m "interp.instr_per_us" "1/us" Higher
      "reference only: does the tier trail the interpreter";
    m "xfer.per_job" "count" Lower "throughput_rps -> serve-hot, serve-sessions";
    m "xfer.fast_ratio" "ratio" Higher "throughput_rps -> serve-hot, serve-sessions";
    m ~gated:false "sched.run_us.p50" "us" Lower "throughput_rps -> serve-sessions (only)";
    m ~gated:false "sched.run_us.p99" "us" Lower "throughput_rps -> serve-sessions (only)";
    m "sched.switches_per_job" "count" Lower "throughput_rps -> serve-sessions";
    m "pool.queue_wait_us.p50" "us" Lower "lat_p99_ms, slo_rps -> all";
    m "pool.queue_wait_us.p99" "us" Lower "lat_p99_ms, slo_rps -> all";
    m "pool.busy_frac" "ratio" Lower "lat_p99_ms, slo_rps -> all";
    m "server.non_exec_us.p50" "us" Lower "lat_p99_ms, slo_rps -> serve-tiny";
    m "server.non_exec_us.p99" "us" Lower "lat_p99_ms, slo_rps -> serve-tiny";
    m "server.non_exec_us.top.p50" "us" Lower "lat_p99_ms, slo_rps -> serve-tiny";
    m "server.non_exec_us.top.p99" "us" Lower "lat_p99_ms, slo_rps -> serve-tiny";
    m "gc.minor_words_per_job" "words" Lower "lat_p99_ms -> serve-hot, serve-tiny";
    m "gen.lag_p99_ms" "ms" Lower "validity of every ladder step";
    m "gen.backlog_max" "count" Lower "validity of every ladder step";
    m "trace.unattributed_us" "us" Lower
      "none: checks the split (reference RTT p50 - layer medians)";
    m "trace.overhead_pct" "%" Lower "none: cost of the spans in the traced run";
  ]

let gated specs = List.filter (fun s -> s.gated) specs

(* A measured value: [n] is the number of samples behind it. *)
type value = { v : float; n : int }

(* The JSON fields of [values], in the order of [specs]: each metric with
   its unit (and its sample count when [with_n]). *)
let json_fields ?(with_n = false) specs values =
  let open Fpc_util.Jsonout in
  List.filter_map
    (fun s ->
      match List.assoc_opt s.name values with
      | None -> None
      | Some x ->
        let v = if Float.is_finite x.v then x.v else 0.0 in
        Some
          ( s.name,
            Obj
              ([ ("value", Float v); ("unit", String s.unit_) ]
              @ if with_n then [ ("n", Int x.n) ] else []) ))
    specs
