(** E19 — link-time devirtualization: late-bound calls onto the
    DIRECTCALL fast path (extension).

    §5's external calls buy independent binding with an extra level of
    indirection — the EFC's link-vector load on every call — and §6's
    answer is DIRECTCALL, which §5.2 prices at half the storage
    references.  The lib/cfa pass takes the §6 deal at link time without
    giving up §5's source model: a call-graph scan over the linked image
    proves which EXTERNALCALL sites can only ever reach one target and
    rewrites exactly those, in place, to SHORTDIRECTCALL or DIRECTCALL.

    Two claims are measured.  Soundness: a devirtualized image produces
    the same OUTPUT as the late-bound one, and the compiled tier stays
    bit-identical to the interpreter on the rewritten image — on the
    suite, and on random cross-module programs.  Profit: on the
    cross-module kernels the dynamically executed late-bound calls all
    but disappear (the acceptance floor is 80%), and the simulated
    storage references drop with them — the paper's own meter, so the
    win is exact, not a wall clock.  Abstention is free: single-module
    programs have no EXTERNALCALL sites and their meters are untouched. *)

open Fpc_util

let compile ~convention ~devirt source =
  match Fpc_compiler.Compile.image ~convention ~devirt source with
  | Ok image -> image
  | Error m -> failwith ("E19 compile: " ^ m)

(* ---- differential: suite + synthetic, all engines, both tiers ---- *)

(* The devirtualized image must (a) answer exactly what the late-bound
   image answers — meters may differ, that is the point — and (b) be
   executed bit-identically by both tiers, meters included. *)
let check ~engine source =
  let convention = Fpc_compiler.Convention.for_engine engine in
  let base = compile ~convention ~devirt:false source in
  let dv = compile ~convention ~devirt:true source in
  let base_out =
    let st = Harness.boot ~image:base ~engine in
    Fpc_interp.Interp.run st;
    Fpc_core.State.output st
  in
  let sti = Harness.boot ~image:dv ~engine in
  Fpc_interp.Interp.run sti;
  let tr = Fpc_tier.Tier.translate dv in
  let stc = Harness.boot ~image:dv ~engine in
  Fpc_tier.Tier.run tr stc;
  if Fpc_core.State.output sti = base_out && Harness.fingerprint stc = Harness.fingerprint sti
  then 0
  else 1

let suite_mismatches engine =
  List.fold_left
    (fun acc program -> acc + check ~engine (Fpc_workload.Programs.find program))
    0 Fpc_workload.Programs.names

let synthetic_seeds = List.init 12 (fun i -> (5 * i) + 2)

let synthetic_mismatches engine =
  List.fold_left
    (fun acc seed ->
      acc
      + check ~engine
          (Fpc_workload.Synthetic.random_program ~late_bound_rate:0.5 ~seed ()))
    0 synthetic_seeds

(* ---- dynamic classification of retired calls ---- *)

(* Every Call event stamps the PC the machine had already advanced to —
   the byte *after* the call instruction.  A linear decode over every
   procedure body (the same walk the CFA pass makes) maps each
   post-instruction PC back to the opcode that retired there, telling us
   what the call *was*: EXTERNALCALL (the late-bound §5 path) or
   DIRECTCALL/SHORTDIRECTCALL (the §6 fast path the rewrite produced). *)
type calls = { mutable late : int; mutable direct : int; mutable other : int }

let call_class_by_next_pc image =
  let fetch pc = Fpc_machine.Memory.peek_code_byte image.Fpc_mesa.Image.mem ~code_base:0 ~pc in
  let table = Hashtbl.create 256 in
  List.iter
    (fun (m : Fpc_mesa.Compiled.t) ->
      let ii = Fpc_mesa.Image.find_instance image m.m_name in
      List.iter
        (fun (p : Fpc_mesa.Compiled.proc) ->
          let pi =
            Fpc_mesa.Image.find_proc image ~instance:m.m_name ~proc:p.p_name
          in
          let entry = (2 * ii.ii_code_base) + pi.pi_entry_offset + 1 in
          let limit = entry + pi.pi_body_bytes in
          let pc = ref entry in
          while !pc < limit do
            let op, n = Fpc_isa.Opcode.decode ~fetch ~pc:!pc in
            pc := !pc + n;
            match op with
            | Fpc_isa.Opcode.Efc _ -> Hashtbl.replace table !pc `Late
            | Fpc_isa.Opcode.Dfc _ | Fpc_isa.Opcode.Sdfc _ ->
              Hashtbl.replace table !pc `Direct
            | Fpc_isa.Opcode.Lfc _ -> Hashtbl.replace table !pc `Local
            | _ -> ()
          done)
        m.m_procs)
    image.Fpc_mesa.Image.dir.Fpc_mesa.Image.source;
  table

let dynamic_calls ~image ~engine =
  let image = Fpc_mesa.Image.clone image in
  let classes = call_class_by_next_pc image in
  let counts = { late = 0; direct = 0; other = 0 } in
  let sink = Fpc_trace.Sink.create ~capacity:1 ~engine:"E19" () in
  Fpc_trace.Sink.set_listener sink
    (Some
       (fun (e : Fpc_trace.Event.t) ->
         if e.kind = Fpc_trace.Event.Call then
           match Hashtbl.find_opt classes e.pc with
           | Some `Late -> counts.late <- counts.late + 1
           | Some `Direct -> counts.direct <- counts.direct + 1
           | Some `Local | None -> counts.other <- counts.other + 1));
  let st =
    Fpc_interp.Interp.boot ~tracer:sink ~image ~engine ~instance:"Main"
      ~proc:"main" ~args:[] ()
  in
  Fpc_interp.Interp.run st;
  Harness.must_halt st;
  ( counts,
    Fpc_machine.Cost.mem_refs st.Fpc_core.State.cost,
    Fpc_machine.Cost.cycles st.Fpc_core.State.cost )

(* ---- the run ---- *)

(* The engines whose natural convention links externally — the only ones
   with late-bound sites to devirtualize. *)
let external_engines = [ ("I1", Fpc_core.Engine.i1); ("I2", Fpc_core.Engine.i2) ]

let cross_module_kernels = [ "callchain"; "leafcalls"; "xleaf" ]

let run () =
  let diff =
    Tablefmt.create
      ~title:"Devirtualized image vs late-bound image: differential (per engine)"
      ~columns:
        [
          ("engine", Tablefmt.Left);
          ("suite", Tablefmt.Right);
          ("synthetic", Tablefmt.Right);
          ("mismatches", Tablefmt.Right);
        ]
  in
  let total_mismatches = ref 0 in
  List.iter
    (fun (name, engine) ->
      let s = suite_mismatches engine in
      let y = synthetic_mismatches engine in
      total_mismatches := !total_mismatches + s + y;
      Tablefmt.add_row diff
        [
          name;
          Printf.sprintf "%d progs" (List.length Fpc_workload.Programs.names);
          Printf.sprintf "%d seeds" (List.length synthetic_seeds);
          Tablefmt.cell_int (s + y);
        ])
    Harness.engines;
  Tablefmt.add_note diff
    "per program: the devirtualized image must OUTPUT exactly what the \
     late-bound image outputs, and the compiled tier must execute the \
     rewritten image bit-identically to the interpreter (meters included)";
  (* static: what the pass proved, per cross-module program *)
  let static =
    Tablefmt.create
      ~title:"CFA verdicts on the cross-module programs (\xC2\xA75 encoding)"
      ~columns:
        [
          ("program", Tablefmt.Left);
          ("sites", Tablefmt.Right);
          ("proven", Tablefmt.Right);
          ("rewritten", Tablefmt.Right);
          ("short form", Tablefmt.Right);
          ("abstained", Tablefmt.Right);
        ]
  in
  let sites_total = ref 0 and rewritten_total = ref 0 in
  List.iter
    (fun program ->
      let image =
        compile ~convention:Fpc_compiler.Convention.external_ ~devirt:true
          (Fpc_workload.Programs.find program)
      in
      match image.Fpc_mesa.Image.dir.Fpc_mesa.Image.devirt with
      | None -> failwith ("E19: no devirt stats on " ^ program)
      | Some d ->
        sites_total := !sites_total + d.Fpc_mesa.Image.dv_sites;
        rewritten_total := !rewritten_total + d.dv_rewritten;
        Tablefmt.add_row static
          [
            program;
            Tablefmt.cell_int d.Fpc_mesa.Image.dv_sites;
            Tablefmt.cell_int d.dv_proven;
            Tablefmt.cell_int d.dv_rewritten;
            Tablefmt.cell_int d.dv_short;
            Tablefmt.cell_int d.dv_abstained;
          ])
    cross_module_kernels;
  Tablefmt.add_note static
    "proven = store-safe image, single-instance target with a DIRECTCALL \
     header, site bytes intact; every rewrite is re-verified by decoding \
     the patched bytes back";
  (* dynamic: retired late-bound calls before/after, and the refs bill *)
  let dyn =
    Tablefmt.create
      ~title:
        "Dynamic late-bound calls, storage references and cycles, before \
         \xe2\x86\x92 after"
      ~columns:
        [
          ("kernel", Tablefmt.Left);
          ("engine", Tablefmt.Left);
          ("EFC calls", Tablefmt.Right);
          ("direct calls", Tablefmt.Right);
          ("devirtualized", Tablefmt.Right);
          ("refs", Tablefmt.Right);
          ("refs saved", Tablefmt.Right);
          ("cycles", Tablefmt.Right);
        ]
  in
  let rate_sum = ref 0.0 and rate_n = ref 0 in
  let saved_sum = ref 0.0 in
  List.iter
    (fun program ->
      let source = Fpc_workload.Programs.find program in
      List.iter
        (fun (ename, engine) ->
          let convention = Fpc_compiler.Convention.for_engine engine in
          let base = compile ~convention ~devirt:false source in
          let dv = compile ~convention ~devirt:true source in
          let cb, refs_b, cycles_b = dynamic_calls ~image:base ~engine in
          let cd, refs_d, cycles_d = dynamic_calls ~image:dv ~engine in
          let rate =
            if cb.late = 0 then 0.0
            else 1.0 -. (float_of_int cd.late /. float_of_int cb.late)
          in
          let saved = Harness.ratio (refs_b - refs_d) refs_b in
          rate_sum := !rate_sum +. rate;
          saved_sum := !saved_sum +. saved;
          incr rate_n;
          Tablefmt.add_row dyn
            [
              program;
              ename;
              Printf.sprintf "%d \xe2\x86\x92 %d" cb.late cd.late;
              Printf.sprintf "%d \xe2\x86\x92 %d" cb.direct cd.direct;
              Printf.sprintf "%.0f%%" (100.0 *. rate);
              Printf.sprintf "%d \xe2\x86\x92 %d" refs_b refs_d;
              Printf.sprintf "%.1f%%" (100.0 *. saved);
              Printf.sprintf "%d \xe2\x86\x92 %d" cycles_b cycles_d;
            ])
        external_engines)
    cross_module_kernels;
  Tablefmt.add_note dyn
    "each retired Call event is mapped back to the call opcode that \
     produced it by a linear decode of every procedure body; refs and \
     cycles are the paper's simulated meters (exact) \xe2\x80\x94 I3/I4 \
     bind early by construction and have no late-bound sites to count";
  let devirt_pct = 100.0 *. !rate_sum /. float_of_int (max 1 !rate_n) in
  let saved_pct = 100.0 *. !saved_sum /. float_of_int (max 1 !rate_n) in
  {
    Exp.id = "E19";
    key = "devirt";
    title = "Link-time devirtualization: EXTERNALCALL to DIRECTCALL";
    paper_claim =
      "an external call takes one more level of indirection than a local \
       call (\xC2\xA75); with DIRECTCALL the procedure descriptor is in the \
       instruction and the linkage costs half the references (\xC2\xA75.2, \
       \xC2\xA76); with either linkage the program behaves identically \
       (except for space and speed) (\xC2\xA76)";
    tables =
      [ Tablefmt.render diff; Tablefmt.render static; Tablefmt.render dyn ];
    headlines =
      [
        ("mismatches", float_of_int !total_mismatches);
        ("devirt_dynamic_pct", devirt_pct);
        ("refs_saved_pct", saved_pct);
        ( "sites_rewritten_pct",
          100.0 *. Harness.ratio !rewritten_total !sites_total );
      ];
  }
