(** E18 — cross-call fusion: inlining known-leaf DIRECTCALLs (extension).

    §2 measures a procedure call every ~20 instructions; the tier's answer
    is to fuse {e through} the call: a DIRECTCALL whose callee is a known
    straight-line leaf is spliced into the caller's superinstruction, with
    one combined depth guard and one batched meter bill.  The contract is
    E16's, extended across the call: outputs, instruction counts, cycles,
    storage references and transfer counts stay bit-identical to the
    interpreter — on the suite, on call-dense synthetic programs, and
    across a forced mid-run relink, which the tier's call nodes see
    because they resolve every destination live.

    The kernel table counts what fusion covers and what lazy translation
    skips: fused calls per call, and procedures translated per procedure
    declared.  Both are exact.  The host time fusion saves is bench/main's
    [micro/fpc/tier/calls/*] keys, recorded with their spread. *)

open Fpc_util

(* ---- differential: suite + synthetic + forced mid-run relink ---- *)

let check ~image ~engine =
  let tr = Fpc_tier.Tier.translate image in
  let sti = Harness.boot ~image ~engine in
  Fpc_interp.Interp.run sti;
  let stc = Harness.boot ~image ~engine in
  Fpc_tier.Tier.run tr stc;
  if Harness.fingerprint sti = Harness.fingerprint stc then 0 else 1

let suite_mismatches engine =
  let convention = Fpc_compiler.Convention.for_engine engine in
  List.fold_left
    (fun acc program ->
      acc + check ~image:(Harness.image_of ~convention ~program ()) ~engine)
    0 Fpc_workload.Programs.names

let synthetic_seeds = List.init 12 (fun i -> (3 * i) + 1)

let synthetic_mismatches engine =
  List.fold_left
    (fun acc seed ->
      let source =
        Fpc_workload.Synthetic.random_program ~leaf_call_rate:0.4 ~seed ()
      in
      let image =
        match Fpc_compiler.Compile.image_for_engine ~engine source with
        | Ok image -> image
        | Error m -> failwith ("E18 synthetic compile: " ^ m)
      in
      acc + check ~image ~engine)
    0 synthetic_seeds

(* The relink probe: attach a translation (so the call site has spliced
   [Lib.inc], the leaf it was linked to), pause mid-loop, re-point Main's
   import of [Lib.inc] at [Lib.trip], and finish.  The rebind must land
   (the output changes) and the tier must still match the interpreter
   run relinked at the same instant. *)
let relink_source =
  "MODULE Lib;\n\
   PROC inc(x: INT): INT =\n  RETURN x + 2;\nEND;\n\
   PROC trip(x: INT): INT =\n  RETURN x * 3 + 1;\nEND;\nEND;\n\n\
   MODULE Main;\nIMPORT Lib;\n\
   PROC main() =\n\
   \  VAR acc: INT := 1;\n\
   \  VAR i: INT := 0;\n\
   \  WHILE i < 120 DO\n\
   \    acc := Lib.inc(acc);\n\
   \    i := i + 1;\n\
   \  END;\n\
   \  OUTPUT acc;\n\
   END;\nEND;\n"

(* Relink needs a live LV table, so every engine runs the §5 external
   encoding here (banked engines keep args-in-place but link externally). *)
let relink_convention engine =
  if Fpc_core.Engine.args_in_place engine then
    Fpc_compiler.Convention.banked ~linkage:Fpc_mesa.Image.External ()
  else Fpc_compiler.Convention.external_

let relink_image ~engine =
  let convention = relink_convention engine in
  match Fpc_compiler.Compile.image ~convention relink_source with
  | Ok image -> image
  | Error m -> failwith ("E18 relink compile: " ^ m)

let lv_index_of image =
  let ii = Fpc_mesa.Image.find_instance image "Main" in
  let imports = ii.Fpc_mesa.Image.ii_imports in
  let rec go i =
    if i >= Array.length imports then failwith "E18: import not found"
    else if imports.(i) = ("Lib", "inc") then i
    else go (i + 1)
  in
  go 0

let run_with_relink ~pause runner image (st : Fpc_core.State.t) =
  runner ~max_steps:pause st;
  (match st.status with
  | Fpc_core.State.Trapped Fpc_core.State.Step_limit ->
    st.status <- Fpc_core.State.Running
  | _ -> ());
  (match st.simple with
  | Some sl ->
    Fpc_core.Simple_links.rebind sl image ~instance:"Main"
      ~lv_index:(lv_index_of image) ~target:("Lib", "trip")
  | None ->
    Fpc_mesa.Linker.rebind_lv image ~instance:"Main"
      ~lv_index:(lv_index_of image) ~target:("Lib", "trip"));
  runner ~max_steps:2_000_000 st

let relink_pauses = [ 35; 120; 480 ]

(* Run directly on the compiled image (no clone): the rebind must poke
   the memory the state is actually running over, or the probe proves
   nothing. *)
let relink_boot ~image ~engine =
  Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main" ~args:[]
    ()

let relink_mismatches engine =
  let plain =
    (* the un-relinked answer — the probe only counts if relinking
       visibly changes it *)
    let image = relink_image ~engine in
    let st = relink_boot ~image ~engine in
    Fpc_interp.Interp.run st;
    Fpc_core.State.output st
  in
  List.fold_left
    (fun acc pause ->
      let reference =
        let image = relink_image ~engine in
        let st = relink_boot ~image ~engine in
        run_with_relink ~pause
          (fun ~max_steps st -> Fpc_interp.Interp.run ~max_steps st)
          image st;
        Harness.fingerprint st
      in
      let image = relink_image ~engine in
      let st = relink_boot ~image ~engine in
      let tr, _ = Fpc_tier.Tier.of_image image in
      run_with_relink ~pause
        (fun ~max_steps st -> Fpc_tier.Tier.run ~max_steps tr st)
        image st;
      let landed = Fpc_core.State.output st <> plain in
      acc + (if Harness.fingerprint st = reference && landed then 0 else 1))
    0 relink_pauses

(* ---- the call-dense kernels: coverage and laziness ---- *)

type perf = {
  coverage : float;  (** fused calls / calls, cold lazy run *)
  lazy_cold : int;  (** procedures translated on first entry *)
  lazy_warm : int;  (** must be 0: the attachment is shared *)
  translated : int;
  procs : int;
}

let measure_kernel ~engine program =
  let convention = Fpc_compiler.Convention.for_engine engine in
  let image = Harness.image_of ~convention ~program () in
  let tr, _ = Fpc_tier.Tier.of_image image in
  let cold = Harness.boot ~image ~engine in
  Fpc_tier.Tier.run tr cold;
  Harness.must_halt cold;
  let warm = Harness.boot ~image ~engine in
  Fpc_tier.Tier.run tr warm;
  Harness.must_halt warm;
  let m = cold.metrics in
  {
    coverage = Harness.ratio m.tier_fused_calls m.calls;
    lazy_cold = m.tier_lazy_translations;
    lazy_warm = warm.metrics.tier_lazy_translations;
    translated = Fpc_tier.Tier.procs_translated tr;
    procs = Fpc_tier.Tier.procs tr;
  }

let run () =
  let diff =
    Tablefmt.create
      ~title:"Fused tier vs interpreter: differential (per engine)"
      ~columns:
        [
          ("engine", Tablefmt.Left);
          ("suite", Tablefmt.Right);
          ("synthetic", Tablefmt.Right);
          ("relink", Tablefmt.Right);
          ("mismatches", Tablefmt.Right);
        ]
  in
  let total_mismatches = ref 0 in
  List.iter
    (fun (name, engine) ->
      let s = suite_mismatches engine in
      let y = synthetic_mismatches engine in
      let r = relink_mismatches engine in
      total_mismatches := !total_mismatches + s + y + r;
      Tablefmt.add_row diff
        [
          name;
          Printf.sprintf "%d progs" (List.length Fpc_workload.Programs.names);
          Printf.sprintf "%d seeds" (List.length synthetic_seeds);
          Printf.sprintf "%d pauses" (List.length relink_pauses);
          Tablefmt.cell_int (s + y + r);
        ])
    Harness.engines;
  Tablefmt.add_note diff
    "each relink run pauses mid-loop, re-points Main's Lib.inc import at \
     Lib.trip, must change the output, and must finish bit-identical to an \
     interpreter run relinked at the same step (the tier's call nodes \
     resolve live and splice Lib.inc only where a call lands on it)";
  let perf =
    Tablefmt.create
      ~title:"Call-dense kernels: fused-call coverage and lazy translation"
      ~columns:
        ([ ("kernel", Tablefmt.Left) ]
        @ List.concat_map
            (fun (n, _) ->
              [ (n ^ " fused", Tablefmt.Right); (n ^ " procs", Tablefmt.Right) ])
            Harness.engines)
  in
  let cov_sum = ref 0.0 and cov_n = ref 0 in
  let lazy_cold_total = ref 0 and lazy_warm_total = ref 0 in
  let kernels = Fpc_workload.Programs.call_dense in
  List.iter
    (fun program ->
      let cells =
        List.concat
          (List.map
             (fun (_, engine) ->
               let p = measure_kernel ~engine program in
               cov_sum := !cov_sum +. p.coverage;
               incr cov_n;
               lazy_cold_total := !lazy_cold_total + p.lazy_cold;
               lazy_warm_total := !lazy_warm_total + p.lazy_warm;
               [
                 Printf.sprintf "%.0f%%" (100.0 *. p.coverage);
                 Printf.sprintf "%d/%d" p.translated p.procs;
               ])
             Harness.engines)
      in
      Tablefmt.add_row perf (program :: cells))
    kernels;
  Tablefmt.add_note perf
    (Printf.sprintf
       "lazy translation: %d procedures translated on first entry across the \
        cold runs, %d on warm re-runs of the shared attachment"
       !lazy_cold_total !lazy_warm_total);
  Tablefmt.add_note perf
    "procs = procedures translated / procedures in the image after the \
     cold and warm runs: a leaf entered only through fused call sites is \
     never translated on its own";
  {
    Exp.id = "E18";
    key = "calls";
    title = "Cross-call fusion: leaf calls spliced into superinstructions";
    paper_claim =
      "there is a procedure call (and corresponding return) about every 20 \
       instructions executed, i.e., about every 30 microseconds (\xC2\xA72); \
       with either linkage the program behaves identically (except for \
       space and speed) (\xC2\xA76)";
    tables = [ Tablefmt.render diff; Tablefmt.render perf ];
    headlines =
      [
        ("mismatches", float_of_int !total_mismatches);
        ( "fused_call_coverage_pct",
          100.0 *. !cov_sum /. float_of_int (max 1 !cov_n) );
        ("lazy_warm_translations", float_of_int !lazy_warm_total);
      ];
  }
