(** E16 — the compiled execution tier (extension).

    The paper defines the machine by its architecture and meters, not by
    how the host happens to execute it: "the encoding is independent of
    the interpreter" (§2), and "with either linkage the program behaves
    identically (except for space and speed)" (§6, §8).  E16 holds the
    threaded-code tier ({!Fpc_tier.Tier}) to that contract over the whole
    suite × all four engines — outputs, instruction counts, cycles,
    storage references and transfer counts must be bit-identical to the
    dispatch-loop interpreter — and reports how much of the run the tier
    covers: fusion coverage (the fraction of retired instructions executed
    inside multi-op superinstructions) and the fast-path share.  What that
    buys in host time is bench/main's [micro/fpc/suite/*] keys, recorded
    with their spread: a wall clock has no place in a deterministic
    table. *)

open Fpc_util

type tally = {
  mutable instrs : int;
  mutable super : int;
  mutable fast : int;
  mutable deopts : int;
  mutable mismatches : int;
}

let run_engine (tally : tally) engine =
  List.iter
    (fun program ->
      let convention = Fpc_compiler.Convention.for_engine engine in
      let image = Harness.image_of ~convention ~program () in
      let tr = Fpc_tier.Tier.translate image in
      let sti = Harness.boot ~image ~engine in
      Fpc_interp.Interp.run sti;
      Harness.must_halt sti;
      let stc = Harness.boot ~image ~engine in
      Fpc_tier.Tier.run tr stc;
      Harness.must_halt stc;
      if Harness.fingerprint sti <> Harness.fingerprint stc then
        tally.mismatches <- tally.mismatches + 1;
      tally.instrs <- tally.instrs + stc.metrics.instructions;
      tally.super <- tally.super + stc.metrics.tier_super_instrs;
      tally.fast <- tally.fast + stc.metrics.tier_fast_instrs;
      tally.deopts <- tally.deopts + stc.metrics.tier_deopts)
    Fpc_workload.Programs.names

let run () =
  let t =
    Tablefmt.create
      ~title:"Compiled tier vs interpreter (whole suite, per engine)"
      ~columns:
        [
          ("engine", Tablefmt.Left);
          ("mismatches", Tablefmt.Right);
          ("fused instrs", Tablefmt.Right);
          ("fast instrs", Tablefmt.Right);
          ("deopts", Tablefmt.Right);
        ]
  in
  let pct a b = 100.0 *. Harness.ratio a b in
  let total = ref 0 and total_super = ref 0 and total_fast = ref 0 in
  let mismatches = ref 0 in
  List.iter
    (fun (name, engine) ->
      let tally =
        { instrs = 0; super = 0; fast = 0; deopts = 0; mismatches = 0 }
      in
      run_engine tally engine;
      total := !total + tally.instrs;
      total_super := !total_super + tally.super;
      total_fast := !total_fast + tally.fast;
      mismatches := !mismatches + tally.mismatches;
      Tablefmt.add_row t
        [
          name;
          Tablefmt.cell_int tally.mismatches;
          Printf.sprintf "%.1f%%" (pct tally.super tally.instrs);
          Printf.sprintf "%.1f%%" (pct tally.fast tally.instrs);
          Tablefmt.cell_int tally.deopts;
        ])
    Harness.engines;
  let fusion = pct !total_super !total in
  let fast = pct !total_fast !total in
  Tablefmt.add_note t
    (Printf.sprintf
       "suite aggregate: %.1f%% of instructions fused, %.1f%% on the fast \
        path; every output and every simulated meter identical across tiers"
       fusion fast);
  {
    Exp.id = "E16";
    key = "tier";
    title = "Threaded-code tier: bit-identical meters at host speed";
    paper_claim =
      "the encoding is independent of the interpreter (\xC2\xA72); with \
       either linkage the program behaves identically (except for space and \
       speed) (\xC2\xA76, \xC2\xA78)";
    tables = [ Tablefmt.render t ];
    headlines =
      [
        ("mismatches", float_of_int !mismatches);
        ("fusion_coverage_pct", fusion);
        ("fastpath_coverage_pct", fast);
      ];
  }
