(* The compiled tier's contract: bit-identical to the interpreter — on
   outcome, output, every simulated meter, traps, fuel slicing and (under
   a tracer) the per-procedure profile — across all four engines, for the
   whole suite and for random synthetic programs.  The speedup is allowed
   to vary; the semantics are not. *)

let engines () =
  [
    ("i1", Fpc_core.Engine.i1);
    ("i2", Fpc_core.Engine.i2);
    ("i3", Fpc_core.Engine.i3 ());
    ("i4", Fpc_core.Engine.i4 ());
  ]

let image_for ?devirt ~engine source =
  match Fpc_compiler.Compile.image_for_engine ?devirt ~engine source with
  | Ok image -> image
  | Error m -> Alcotest.fail ("compile: " ^ m)

let boot ?tracer ~engine image =
  Fpc_interp.Interp.boot ?tracer ~image ~engine ~instance:"Main" ~proc:"main"
    ~args:[] ()

(* Everything observable about a finished run: the interpreter outcome
   record plus the metrics the outcome does not fold in.  The tier's own
   host-speed counters (the tier_ fields) are deliberately excluded —
   they are the only fields allowed to differ. *)
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

(* [prepare] edits the freshly linked image before the run. *)
let interp_observe ?handler ?devirt ?(prepare = ignore) ~engine ~max_steps
    source =
  let image = image_for ?devirt ~engine source in
  prepare image;
  (match handler with
  | Some proc ->
    Fpc_mesa.Image.set_trap_handler image
      (Fpc_mesa.Image.descriptor_of image ~instance:"Main" ~proc)
  | None -> ());
  let st = boot ~engine image in
  Fpc_interp.Interp.run ~max_steps st;
  observe st

let tier_observe ?handler ?devirt ?(prepare = ignore) ~engine ~max_steps
    source =
  let image = image_for ?devirt ~engine source in
  prepare image;
  (match handler with
  | Some proc ->
    Fpc_mesa.Image.set_trap_handler image
      (Fpc_mesa.Image.descriptor_of image ~instance:"Main" ~proc)
  | None -> ());
  let st = boot ~engine image in
  let tier, hit = Fpc_tier.Tier.of_image image in
  let tier2, hit2 = Fpc_tier.Tier.of_image image in
  Alcotest.(check bool) "first of_image builds" false hit;
  Alcotest.(check bool) "second of_image reuses" true hit2;
  Alcotest.(check bool) "cached translation is shared" true (tier == tier2);
  Fpc_tier.Tier.run ~max_steps tier st;
  (observe st, st.metrics)

let check_equiv ?handler ?devirt ?prepare ?(max_steps = 2_000_000) ~name
    source =
  List.iter
    (fun (en, engine) ->
      let reference =
        interp_observe ?handler ?devirt ?prepare ~engine ~max_steps source
      in
      let got, _m =
        tier_observe ?handler ?devirt ?prepare ~engine ~max_steps source
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: tier == interp" name en)
        true
        (got = reference))
    (engines ())

(* ---- whole-suite equivalence, all four engines ---- *)

let test_suite_equivalence () =
  List.iter
    (fun prog -> check_equiv ~name:prog (Fpc_workload.Programs.find prog))
    Fpc_workload.Programs.names

(* The fast path must actually engage: fib is straight-line enough that
   most retired instructions should ride fused superinstructions. *)
let test_fusion_engages () =
  let src = Fpc_workload.Programs.find "fib" in
  let _obs, m = tier_observe ~engine:Fpc_core.Engine.i2 ~max_steps:2_000_000 src in
  Alcotest.(check bool) "fast-path instructions retired" true
    (m.Fpc_core.State.tier_fast_instrs > 0);
  Alcotest.(check bool) "superinstructions retired" true
    (m.Fpc_core.State.tier_super_instrs > 0);
  Alcotest.(check bool) "fast path dominates" true
    (2 * m.Fpc_core.State.tier_fast_instrs > m.Fpc_core.State.instructions)

(* ---- traps ---- *)

let div_zero_src =
  "MODULE Main;\nPROC f(n: INT): INT =\n  RETURN n / (n - n);\nEND;\n\
   PROC main() =\n  OUTPUT f(7);\nEND;\nEND;\n"

let handled_trap_src =
  "MODULE Main;\n\
   PROC handler(code: INT) =\n  OUTPUT 9000 + code;\n  STOP;\nEND;\n\
   PROC f(n: INT): INT =\n  RETURN n / (n - n);\nEND;\n\
   PROC main() =\n  OUTPUT f(7);\nEND;\nEND;\n"

let test_trap_equivalence () =
  (* Uncaught: the machine parks in [Trapped Div_zero] mid-block. *)
  check_equiv ~name:"div-zero-fatal" div_zero_src;
  (* Caught: the trap XFERs into the handler — a deopt at an exact
     boundary with the handler observing exact meters. *)
  check_equiv ~handler:"handler" ~name:"div-zero-handled" handled_trap_src

(* ---- frame-heap exhaustion at a call's allocation point ---- *)

(* Runaway recursion ends in [Frame_heap_exhausted], raised by the frame
   allocation inside a call.  The batched resolution reads of a compiled
   call must be charged before that point, exactly as the interpreter
   makes them, so the trapped machine's meters agree.  [A.r] and [B.s]
   recurse through EXTERNALCALL (I1/I2, devirt off) or DIRECTCALL (I3/I4
   direct linkage; I1/I2 devirtualized); [loop] through LOCALCALL
   (DIRECTCALL under direct linkage). *)
let runaway_local_src =
  {|
MODULE Main;
PROC loop(n: INT): INT =
  RETURN loop(n + 1);
END;
PROC main() =
  OUTPUT loop(0);
END;
END;
|}

let runaway_external_src =
  {|
MODULE A;
IMPORT B;
PROC r(n: INT): INT =
  RETURN B.s(n + 1);
END;
END;

MODULE B;
IMPORT A;
PROC s(n: INT): INT =
  RETURN A.r(n + 1);
END;
END;

MODULE Main;
IMPORT A;
PROC main() =
  OUTPUT A.r(0);
END;
END;
|}

let test_frame_heap_exhaustion () =
  List.iter
    (fun (name, devirt, source) ->
      check_equiv ~devirt ~name source;
      List.iter
        (fun (en, engine) ->
          let (o, _), _ =
            tier_observe ~devirt ~engine ~max_steps:2_000_000 source
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: trapped at allocation" name en)
            true
            (o.Fpc_interp.Interp.o_status
            = Fpc_core.State.Trapped Fpc_core.State.Frame_heap_exhausted))
        (engines ()))
    [
      ("runaway-local", false, runaway_local_src);
      ("runaway-external", false, runaway_external_src);
      ("runaway-direct", true, runaway_external_src);
    ]

(* ---- programs that write into their own code region ---- *)

(* An out-of-range global array store reaches any word above the global
   frame, the code region included.  [g[k] := v] with [k] and [v] filled
   in by the host overwrites a word the interpreter's call path reads
   live: a callee's frame-size byte (read by LOCALCALL, EXTERNALCALL and
   as the third DIRECTCALL header byte) or an entry-vector word.  The
   compiled tier resolved those words at translate time and must notice
   the write.  [f(1)] runs before the store and [f(2)] after it, from
   sites translated before it. *)
let code_write_src =
  {|
MODULE Lib;
PROC f(n: INT): INT =
  RETURN n + 2;
END;
END;

MODULE Main;
IMPORT Lib;
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
  OUTPUT f(1) + Lib.f(1);
  g[k] := v;
  OUTPUT f(2) + Lib.f(2);
  OUTPUT h(3);
END;
END;
|}

(* Aim [instance]'s [g[k] := v] at word [addr] with value [value]: [k]
   and [v] are found by their sentinel initial values, and [g] is the
   global declared just before [k]. *)
let aim_store ?(instance = "Main") image ~addr ~value =
  let module Image = Fpc_mesa.Image in
  let ii = Image.find_instance image instance in
  let m = Image.find_module image ii.Image.ii_module in
  let globals = m.Fpc_mesa.Compiled.m_global_init in
  let index_of sentinel =
    fst (List.find (fun (_, v) -> v = sentinel) globals)
  in
  let k_index = index_of 1111 and v_index = index_of 2222 in
  let global i = ii.Image.ii_gf_addr + Image.global_base + i in
  let mem = image.Image.mem in
  if addr <= global (k_index - 1) then
    Alcotest.failf "aim_store: word %d lies below %s's array" addr instance;
  Fpc_machine.Memory.poke mem (global k_index) (addr - global (k_index - 1));
  Fpc_machine.Memory.poke mem (global v_index) value

(* Add 3 to the frame-size byte of [instance.proc]. *)
let bump_fsi ~instance image =
  let byte = Fpc_mesa.Image.entry_byte_address image ~instance ~proc:"f" in
  let addr = byte lsr 1 in
  let word = Fpc_machine.Memory.peek image.Fpc_mesa.Image.mem addr in
  aim_store image ~addr ~value:(word + if byte land 1 = 0 then 3 lsl 8 else 3)

(* Point Main.f's entry-vector word at Main.h. *)
let retarget_ev image =
  let module Image = Fpc_mesa.Image in
  let cb = Image.gf_code_base image ~instance:"Main" in
  let f = Image.find_proc image ~instance:"Main" ~proc:"f" in
  let h = Image.find_proc image ~instance:"Main" ~proc:"h" in
  aim_store image ~addr:(cb + f.Image.pi_ev) ~value:h.Image.pi_entry_offset

let test_code_region_writes () =
  check_equiv ~devirt:false ~name:"fsi-local"
    ~prepare:(bump_fsi ~instance:"Main") code_write_src;
  check_equiv ~devirt:false ~name:"fsi-external"
    ~prepare:(bump_fsi ~instance:"Lib") code_write_src;
  check_equiv ~devirt:false ~name:"ev-retarget" ~prepare:retarget_ev
    code_write_src;
  (* the store really lands: the retargeted LOCALCALL changes I2's answer *)
  let output_with prepare =
    let (o, _), _ =
      tier_observe ~devirt:false ~prepare ~engine:Fpc_core.Engine.i2
        ~max_steps:2_000_000 code_write_src
    in
    o.Fpc_interp.Interp.o_output
  in
  Alcotest.(check bool) "retargeted call changed the output" true
    (output_with retarget_ev <> output_with ignore)

(* ---- storage accesses past the end of the store ---- *)

(* A computed index can carry a global or frame-array access past the
   64K-word store: [k] is 65535, built by a call and word arithmetic, so
   neither tier can see it at translate time.  Memory's bounds check then
   raises [Invalid_argument], which aborts the job.  Both tiers must
   abort at the same access with the same message and the same meters
   (the reference is charged before the check, the references after it
   are not, though the tier billed them with the batch), on every
   engine, with devirt on and off.  This pins what the inlined accessors
   keep. *)
let out_of_range_src access =
  Printf.sprintf
    {|
MODULE Main;
VAR g: ARRAY 4 OF INT;
VAR k: INT;
PROC f(n: INT): INT =
  RETURN n + 1;
END;
PROC main() =
  VAR a: ARRAY 4 OF INT;
  a[0] := f(g[0]);
  k := f(30000) + 29999 + 5535;
  OUTPUT f(k) + a[0];
  %s
  OUTPUT f(2);
END;
END;
|}
    access

let run_image_to_abort ~tier ~engine image =
  let st = boot ~engine image in
  let result =
    match
      if tier then
        Fpc_tier.Tier.run ~max_steps:2_000_000
          (fst (Fpc_tier.Tier.of_image image))
          st
      else Fpc_interp.Interp.run ~max_steps:2_000_000 st
    with
    | () -> Ok ()
    | exception Invalid_argument m -> Error m
  in
  (result, observe st)

let run_to_abort ~tier ~devirt ~engine source =
  run_image_to_abort ~tier ~engine (image_for ~devirt ~engine source)

let test_out_of_range_storage () =
  List.iter
    (fun (name, access, prefix) ->
      List.iter
        (fun devirt ->
          List.iter
            (fun (en, engine) ->
              let source = out_of_range_src access in
              let label = Printf.sprintf "%s/%s/devirt=%b" name en devirt in
              let ((result, _) as reference) =
                run_to_abort ~tier:false ~devirt ~engine source
              in
              (match result with
              | Error m when String.starts_with ~prefix m -> ()
              | Error m -> Alcotest.failf "%s: unexpected error %S" label m
              | Ok () -> Alcotest.failf "%s: ran past the store" label);
              let got = run_to_abort ~tier:true ~devirt ~engine source in
              Alcotest.(check (result unit string))
                (label ^ ": same error") result (fst got);
              Alcotest.(check bool) (label ^ ": tier == interp") true
                (got = reference))
            (engines ()))
        [ false; true ])
    [
      ("global-read", "OUTPUT g[k] + k;", "Memory.peek: address ");
      ("global-write", "g[k] := 7; k := k + 1;", "Memory.poke: address ");
      ("frame-read", "OUTPUT a[k] + a[0];", "Memory.peek: address ");
      ("frame-write", "a[k] := k; a[1] := k;", "Memory.poke: address ");
    ]

(* A static LL/SL/LG/SG offset is at most 255 words, and the compiler
   only emits offsets inside the frame or global frame, so a static
   access past the store needs hand-made code and a context near the top
   of storage.  Here [main] XFERs to a frame context planted at
   [top_lf], whose saved PC is [target]'s first instruction and whose
   saved global frame is the real one or a copy at [top_gf].  [target]
   is one straight-line batch: work before the access, the access, work
   after it.  Or a call to [leaf], a known leaf the tier splices into
   the call site, comes first; with the planted global frame, the
   leaf's own global read is the one past the store.  The interpreter
   stops having counted and charged up to and including the aborting
   access; the tier must not have counted the rest of its batch. *)
let top_lf = 65536 - 64
let top_gf = 65536 - 40

(* A hand-assembled procedure of [ops], taking no arguments. *)
let proc name ~locals ops =
  let b = Fpc_isa.Builder.create () in
  List.iter (Fpc_isa.Builder.emit b) ops;
  {
    Fpc_mesa.Compiled.p_name = name;
    p_body = Fpc_isa.Builder.to_bytes b;
    p_locals_words = locals;
    p_nargs = 0;
    p_dfc_fixups = [];
    p_lpd_fixups = [];
    p_efc_sites = [];
  }

let static_past_store_image ~engine ~devirt ~fake_gf access =
  let open Fpc_isa in
  let target =
    Opcode.([ Li 7; Sl 1; Ll 1; Out; Li 3; Sg 1 ] @ access @ [ Li 9; Out; Halt ])
  in
  let m =
    {
      Fpc_mesa.Compiled.m_name = "Main";
      m_globals_words = 4;
      m_global_init = [];
      m_imports = [||];
      m_procs =
        [
          proc "main" ~locals:0 Opcode.[ Li top_lf; Xf; Halt ];
          proc "target" ~locals:4 target;
          proc "leaf" ~locals:0 Opcode.[ Lg 1; Lg 60; Add; Ret ];
        ];
    }
  in
  let linkage = (Fpc_compiler.Convention.for_engine engine).linkage in
  let image =
    match Fpc_mesa.Linker.link ~linkage ~devirt [ m ] with
    | Ok image -> image
    | Error e -> Alcotest.fail ("link: " ^ e)
  in
  if devirt then ignore (Fpc_cfa.Cfa.devirtualize image);
  let module Image = Fpc_mesa.Image in
  let mem = image.Image.mem in
  let ii = Image.find_instance image "Main" in
  let pi = Image.find_proc image ~instance:"Main" ~proc:"target" in
  let gf = if fake_gf then top_gf else ii.Image.ii_gf_addr in
  if fake_gf then begin
    Fpc_machine.Memory.poke mem top_gf ii.Image.ii_code_base;
    Fpc_machine.Memory.poke mem (top_gf + 1) ii.Image.ii_lv_base
  end;
  let module Frame = Fpc_frames.Frame in
  Fpc_machine.Memory.poke mem (top_lf + Frame.off_fsi) pi.Image.pi_fsi;
  Fpc_machine.Memory.poke mem (top_lf + Frame.off_pc)
    (pi.Image.pi_entry_offset + 1);
  Fpc_machine.Memory.poke mem (top_lf + Frame.off_return_link) 0;
  Fpc_machine.Memory.poke mem (top_lf + Frame.off_global_frame) gf;
  image

(* I1 resolves a LOCALCALL through a table keyed by the global frame,
   and the planted copy names no instance: the leaf case's call traps on
   a NIL context there, on both tiers, before any access past the store
   (the Mesa engines resolve through the copied code base and reach it).
   No OCaml exception but the store's own bounds check may escape. *)
let test_static_past_store () =
  List.iter
    (fun (name, fake_gf, access) ->
      List.iter
        (fun devirt ->
          List.iter
            (fun (en, engine) ->
              let label = Printf.sprintf "%s/%s/devirt=%b" name en devirt in
              let image () =
                static_past_store_image ~engine ~devirt ~fake_gf access
              in
              let ((result, (o, _)) as reference) =
                run_image_to_abort ~tier:false ~engine (image ())
              in
              (match (name = "LG-leaf" && en = "i1", result) with
              | true, Ok ()
                when o.Fpc_interp.Interp.o_status
                     = Fpc_core.State.Trapped Fpc_core.State.Nil_context ->
                ()
              | true, _ -> Alcotest.failf "%s: expected a NIL-context trap" label
              | false, Error m when String.starts_with ~prefix:"Memory." m -> ()
              | false, Error m -> Alcotest.failf "%s: unexpected error %S" label m
              | false, Ok () -> Alcotest.failf "%s: ran past the store" label);
              Alcotest.(check (list int))
                (label ^ ": output before the access") [ 7 ]
                o.Fpc_interp.Interp.o_output;
              let got = run_image_to_abort ~tier:true ~engine (image ()) in
              Alcotest.(check (result unit string))
                (label ^ ": same error") result (fst got);
              Alcotest.(check bool) (label ^ ": tier == interp") true
                (got = reference))
            (engines ()))
        [ false; true ])
    Fpc_isa.Opcode.
      [
        ("LL", false, [ Ll 100; Sl 2 ]);
        ("LL-arith", false, [ Ll 1; Ll 100; Add; Sl 2 ]);
        ("LL-out", false, [ Ll 100; Out ]);
        ("LL-after-call", false, [ Lfc 2; Drop; Ll 100; Out ]);
        ("SL", false, [ Li 5; Sl 100 ]);
        ("SL-arith", false, [ Ll 1; Li 2; Add; Sl 100 ]);
        ("LG", true, [ Lg 60; Sl 2 ]);
        ("LG-out", true, [ Lg 1; Lg 60; Add; Out ]);
        ("SG", true, [ Li 5; Sg 60 ]);
        ("SG-arith", true, [ Lg 1; Li 2; Add; Sg 60 ]);
        ("LG-leaf", true, [ Lfc 2; Out ]);
      ]

(* I1 resolves a procedure descriptor through the instance that owns
   its gfi.  Here [main] XFERs to a descriptor whose gfi no instance
   owns: the XFER traps on a NIL context, on both tiers and with or
   without devirtualisation, and no OCaml exception escapes. *)
let test_unowned_descriptor () =
  let engine = Fpc_core.Engine.i1 in
  let desc = Fpc_mesa.Descriptor.(pack (Proc { gfi = max_gfi; ev = 0 })) in
  let m =
    {
      Fpc_mesa.Compiled.m_name = "Main";
      m_globals_words = 1;
      m_global_init = [];
      m_imports = [||];
      m_procs =
        [
          proc "main" ~locals:0
            Fpc_isa.Opcode.[ Li 7; Out; Li desc; Xf; Li 9; Out; Halt ];
        ];
    }
  in
  let linkage = (Fpc_compiler.Convention.for_engine engine).linkage in
  List.iter
    (fun devirt ->
      let image () =
        match Fpc_mesa.Linker.link ~linkage ~devirt [ m ] with
        | Ok image ->
          if devirt then ignore (Fpc_cfa.Cfa.devirtualize image);
          image
        | Error e -> Alcotest.fail ("link: " ^ e)
      in
      let label = Printf.sprintf "unowned descriptor/devirt=%b" devirt in
      let ((result, (o, _)) as reference) =
        run_image_to_abort ~tier:false ~engine (image ())
      in
      Alcotest.(check (result unit string)) (label ^ ": no exception") (Ok ())
        result;
      Alcotest.(check bool) (label ^ ": NIL-context trap") true
        (o.Fpc_interp.Interp.o_status
        = Fpc_core.State.Trapped Fpc_core.State.Nil_context);
      Alcotest.(check (list int)) (label ^ ": output before the XFER") [ 7 ]
        o.Fpc_interp.Interp.o_output;
      let got = run_image_to_abort ~tier:true ~engine (image ()) in
      Alcotest.(check bool) (label ^ ": tier == interp") true (got = reference))
    [ false; true ]

(* A trap handler that traps on entry.  [main] breaks into [handler],
   whose first instruction is [SL 0].  I1-I3 pass the trap code on the
   evaluation stack, so the handler stores it, prints it and returns
   past the BRK.  I4 renames it into the register bank, so [SL 0]
   underflows, the underflow re-enters the handler, and the recursion
   ends when entering the handler finds the frame heap exhausted: the
   machine must park in that trap on both tiers, with no exception
   escaping. *)
let test_trap_in_handler_entry () =
  let m =
    {
      Fpc_mesa.Compiled.m_name = "Main";
      m_globals_words = 1;
      m_global_init = [];
      m_imports = [||];
      m_procs =
        [
          proc "main" ~locals:0
            Fpc_isa.Opcode.[ Li 7; Out; Brk; Li 9; Out; Halt ];
          proc "handler" ~locals:2 Fpc_isa.Opcode.[ Sl 0; Ll 0; Out; Ret ];
        ];
    }
  in
  List.iter
    (fun (en, engine) ->
      let linkage = (Fpc_compiler.Convention.for_engine engine).linkage in
      let image () =
        match Fpc_mesa.Linker.link ~linkage ~devirt:false [ m ] with
        | Ok image ->
          Fpc_mesa.Image.set_trap_handler image
            (Fpc_mesa.Image.descriptor_of image ~instance:"Main"
               ~proc:"handler");
          image
        | Error e -> Alcotest.fail ("link: " ^ e)
      in
      let label = "trap in handler entry/" ^ en in
      let ((result, (o, _)) as reference) =
        run_image_to_abort ~tier:false ~engine (image ())
      in
      Alcotest.(check (result unit string)) (label ^ ": no exception") (Ok ())
        result;
      let expected =
        if en = "i4" then
          Fpc_core.State.Trapped Fpc_core.State.Frame_heap_exhausted
        else Fpc_core.State.Halted
      in
      Alcotest.(check bool) (label ^ ": final status") true
        (o.Fpc_interp.Interp.o_status = expected);
      let got = run_image_to_abort ~tier:true ~engine (image ()) in
      Alcotest.(check bool) (label ^ ": tier == interp") true (got = reference))
    (engines ())

(* ---- fuel expiry and slicing ---- *)

let infinite_loop_src =
  "MODULE Main;\nPROC main() =\n  VAR i: INT := 0;\n  WHILE TRUE DO\n    i := i + 1;\n  END;\nEND;\nEND;\n"

let test_fuel_exhaustion_equivalence () =
  (* Exact budgets, including ones that expire mid-superinstruction. *)
  List.iter
    (fun max_steps ->
      check_equiv ~max_steps
        ~name:(Printf.sprintf "fuel-%d" max_steps)
        infinite_loop_src)
    [ 1; 7; 100; 1_001; 50_000 ]

(* The pool's deadline path: run in slices, resetting [Step_limit]
   between them.  The tier must resume at the exact boundary where the
   previous slice ran out. *)
let run_sliced runner st ~fuel ~slice =
  let rec go remaining =
    let s = min slice remaining in
    runner ~max_steps:s st;
    match st.Fpc_core.State.status with
    | Fpc_core.State.Trapped Fpc_core.State.Step_limit when remaining > s ->
      st.Fpc_core.State.status <- Fpc_core.State.Running;
      go (remaining - s)
    | _ -> ()
  in
  if fuel > 0 then go fuel

let test_sliced_resume_equivalence () =
  List.iter
    (fun (prog, fuel, slice) ->
      let source =
        match prog with
        | `Suite p -> Fpc_workload.Programs.find p
        | `Inline s -> s
      in
      List.iter
        (fun (en, engine) ->
          let reference =
            let st = boot ~engine (image_for ~engine source) in
            run_sliced (fun ~max_steps st -> Fpc_interp.Interp.run ~max_steps st)
              st ~fuel ~slice;
            observe st
          in
          let got =
            let image = image_for ~engine source in
            let st = boot ~engine image in
            let tier, _ = Fpc_tier.Tier.of_image image in
            run_sliced (fun ~max_steps st -> Fpc_tier.Tier.run ~max_steps tier st)
              st ~fuel ~slice;
            observe st
          in
          Alcotest.(check bool)
            (Printf.sprintf "sliced %s/%s" en
               (match prog with `Suite p -> p | `Inline _ -> "loop"))
            true (got = reference))
        (engines ()))
    [
      (`Suite "fib", 2_000_000, 777);
      (`Suite "sieve", 2_000_000, 97);
      (`Suite "isort", 2_000_000, 97);
      (`Inline infinite_loop_src, 20_000, 133);
    ]

(* The two run loops agree on the budget at its edges: a non-positive
   budget stops both before any instruction, and a run stopped after 100
   steps resumes under a budget of [max_int] (which must not wrap round
   when added to the instructions already retired). *)
let test_budget_edges () =
  let source = Fpc_workload.Programs.find "fib" in
  let once runner ~max_steps st = runner ~max_steps st in
  let resume runner ~max_steps st =
    runner ~max_steps st;
    if max_steps = 100 then begin
      st.Fpc_core.State.status <- Fpc_core.State.Running;
      runner ~max_steps:max_int st
    end
  in
  List.iter
    (fun (en, engine) ->
      List.iter
        (fun (label, max_steps, runner, halts) ->
          let reference =
            let st = boot ~engine (image_for ~engine source) in
            runner (fun ~max_steps st -> Fpc_interp.Interp.run ~max_steps st)
              ~max_steps st;
            observe st
          in
          let got =
            let image = image_for ~engine source in
            let st = boot ~engine image in
            let tier, _ = Fpc_tier.Tier.of_image image in
            runner (fun ~max_steps st -> Fpc_tier.Tier.run ~max_steps tier st)
              ~max_steps st;
            observe st
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: interp ends %s" en label
               (if halts then "halted" else "at the step limit"))
            true
            ((fst reference).Fpc_interp.Interp.o_status
            = if halts then Fpc_core.State.Halted
              else Fpc_core.State.Trapped Fpc_core.State.Step_limit);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: tier == interp" en label)
            true (got = reference))
        [
          ("-1", -1, once, false);
          ("0", 0, once, false);
          ("1", 1, once, false);
          ("100", 100, once, false);
          ("100 then max_int", 100, resume, true);
        ])
    (engines ())

(* ---- DIV and MOD by a literal ---- *)

(* A DIV or MOD right after a literal with a non-zero divisor cannot
   trap, so the tier fuses it into the batch; every other one stays an
   exact step.  [main] divides each dividend by each divisor form, as
   DIV and as MOD, with the dividend as a literal, in a local and on the
   stack (the peepholes [LOAD a; LI c; DIV|MOD] and [LI c; DIV|MOD]).
   Then it divides by a local, reaches one MOD both by falling through
   from a literal and by a jump whose target is the MOD itself (the
   jump ends its run right before an exact follower, which must be
   counted once), and ends with [LI 0; DIV], which traps [Div_zero].
   [handler], when installed, prints 9000 and divides once more; it
   leaves the trap code alone, since I4 passes it in the register bank
   and the other engines on the stack.  Dividends and divisors include
   the extremes, where truncating and floor division differ in sign and
   -32768 / -1 wraps to -32768. *)
let divmod_dividends = [ -32768; -7; -1; 0; 1; 7; 32767 ]

let divmod_divisors =
  Fpc_isa.Opcode.[ Li 7; Li 200; Li 8191; Lpd 0xFFFF; Lpd 0x8000 ]

let divmod_image ~engine ~devirt ~handled =
  let open Fpc_isa in
  let b = Builder.create () in
  let emit = List.iter (Builder.emit b) in
  List.iter
    (fun x ->
      let x = Opcode.Lpd (x land 0xFFFF) in
      List.iter
        (fun d ->
          List.iter
            (fun op ->
              emit Opcode.[ x; d; op; Out ];
              emit Opcode.[ x; Sl 0; Ll 0; d; op; Out ];
              emit Opcode.[ x; Nop; d; op; Out ])
            Opcode.[ Div; Mod ])
        divmod_divisors)
    divmod_dividends;
  emit Opcode.[ Li 3; Sl 2; Lpd 0xFFF0; Ll 2; Div; Out ];
  let loop = Builder.new_label b
  and fall = Builder.new_label b
  and target = Builder.new_label b in
  emit Opcode.[ Li 1; Sl 1 ];
  Builder.place b loop;
  emit Opcode.[ Ll 1 ];
  Builder.jump b `Jz fall;
  emit Opcode.[ Lpd 100; Li 7 ];
  Builder.jump b `J target;
  Builder.place b fall;
  emit Opcode.[ Lpd 200; Li 9 ];
  Builder.place b target;
  emit Opcode.[ Mod; Out; Ll 1; Li 1; Sub; Sl 1; Ll 1; Li 0; Lt ];
  Builder.jump b `Jz loop;
  emit Opcode.[ Lpd 5; Li 0; Div; Out; Li 77; Out; Halt ];
  let main = { (proc "main" ~locals:4 []) with p_body = Builder.to_bytes b } in
  let handler =
    {
      (proc "handler" ~locals:2
         Opcode.[ Lpd 9000; Out; Lpd 0xFFF8; Li 7; Mod; Out; Halt ])
      with
      p_nargs = 1;
    }
  in
  let m =
    {
      Fpc_mesa.Compiled.m_name = "Main";
      m_globals_words = 1;
      m_global_init = [];
      m_imports = [||];
      m_procs = [ main; handler ];
    }
  in
  let linkage = (Fpc_compiler.Convention.for_engine engine).linkage in
  let image =
    match Fpc_mesa.Linker.link ~linkage ~devirt [ m ] with
    | Ok image -> image
    | Error e -> Alcotest.fail ("link: " ^ e)
  in
  if devirt then ignore (Fpc_cfa.Cfa.devirtualize image);
  if handled then
    Fpc_mesa.Image.set_trap_handler image
      (Fpc_mesa.Image.descriptor_of image ~instance:"Main" ~proc:"handler");
  image

(* The expected output, from OCaml's truncating [/] and [mod]. *)
let divmod_expected ~handled =
  let word v = v land 0xFFFF in
  let quotients =
    List.concat_map
      (fun x ->
        List.concat_map
          (fun (d : Fpc_isa.Opcode.t) ->
            let c =
              match d with
              | Li c | Lpd c -> Fpc_util.Bits.signed_of_unsigned ~width:16 c
              | _ -> assert false
            in
            List.concat_map
              (fun r -> [ r; r; r ])
              [ word (x / c); word (x mod c) ])
          divmod_divisors)
      divmod_dividends
  in
  quotients
  @ [ word (-16 / 3); 100 mod 7; 200 mod 9 ]
  @ if handled then [ 9000; word (-8 mod 7) ] else []

let test_divmod_literal () =
  List.iter
    (fun handled ->
      List.iter
        (fun devirt ->
          List.iter
            (fun (en, engine) ->
              let label =
                Printf.sprintf "divmod/%s/devirt=%b/handled=%b" en devirt
                  handled
              in
              let image () = divmod_image ~engine ~devirt ~handled in
              let reference =
                let st = boot ~engine (image ()) in
                Fpc_interp.Interp.run ~max_steps:100_000 st;
                observe st
              in
              let o, _ = reference in
              Alcotest.(check (list int)) (label ^ ": output")
                (divmod_expected ~handled) o.Fpc_interp.Interp.o_output;
              Alcotest.(check bool) (label ^ ": status") true
                (o.Fpc_interp.Interp.o_status
                = if handled then Fpc_core.State.Halted
                  else Fpc_core.State.Trapped Fpc_core.State.Div_zero);
              let img = image () in
              let st = boot ~engine img in
              Fpc_tier.Tier.run ~max_steps:100_000
                (fst (Fpc_tier.Tier.of_image img))
                st;
              Alcotest.(check bool) (label ^ ": tier == interp") true
                (observe st = reference);
              (* Fuel slices that end between a literal and its DIV/MOD:
                 the resumed run starts on the DIV/MOD itself, which must
                 then run as an exact step. *)
              let on_divmod = ref 0 in
              List.iter
                (fun slice ->
                  let sliced runner =
                    let img = image () in
                    let st = boot ~engine img in
                    let pd = Fpc_mesa.Image.predecode img in
                    run_sliced
                      (fun ~max_steps st ->
                        runner img ~max_steps st;
                        let pc = st.Fpc_core.State.pc_abs in
                        if
                          Fpc_isa.Predecode.len_at pd pc > 0
                          &&
                          match Fpc_isa.Predecode.op_at pd pc with
                          | Div | Mod -> true
                          | _ -> false
                        then incr on_divmod)
                      st ~fuel:100_000 ~slice;
                    observe st
                  in
                  let want =
                    sliced (fun _ ~max_steps st ->
                        Fpc_interp.Interp.run ~max_steps st)
                  in
                  let got =
                    sliced (fun img ~max_steps st ->
                        Fpc_tier.Tier.run ~max_steps
                          (fst (Fpc_tier.Tier.of_image img))
                          st)
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/slice=%d: tier == interp" label slice)
                    true (got = want);
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/slice=%d: same as unsliced" label slice)
                    true (got = reference))
                [ 2; 3; 5; 7; 11 ];
              Alcotest.(check bool)
                (label ^ ": some slice ends on a DIV/MOD")
                true (!on_divmod > 0))
            (engines ()))
        [ false; true ])
    [ false; true ]

(* ---- exact execution: one trap handler, the interpreter's own step ---- *)

(* [main], whose body [body] emits over [globals] (initial values of
   globals 0, 1, ...), and [handler], which returns straight
   to the faulting frame: the trap suspended it with its PC past the
   faulting instruction, so the run carries on there.  Neither touches
   the trap code, which I4 passes in the register bank and the other
   engines on the stack; the code below works with either. *)
let exact_image ?(globals = []) ~engine ~handled body =
  let open Fpc_isa in
  let b = Builder.create () in
  body b;
  let main = { (proc "main" ~locals:4 []) with p_body = Builder.to_bytes b } in
  let handler = { (proc "handler" ~locals:2 Opcode.[ Ret ]) with p_nargs = 1 } in
  let m =
    {
      Fpc_mesa.Compiled.m_name = "Main";
      m_globals_words = Int.max 1 (List.length globals);
      m_global_init = List.mapi (fun i v -> (i, v)) globals;
      m_imports = [||];
      m_procs = [ main; handler ];
    }
  in
  let linkage = (Fpc_compiler.Convention.for_engine engine).linkage in
  let image =
    match Fpc_mesa.Linker.link ~linkage [ m ] with
    | Ok image -> image
    | Error e -> Alcotest.fail ("link: " ^ e)
  in
  if handled then
    Fpc_mesa.Image.set_trap_handler image
      (Fpc_mesa.Image.descriptor_of image ~instance:"Main" ~proc:"handler");
  image

(* (a) 100,000 handled DIV-by-zero traps in one run: two passes of a
   50,000-iteration loop whose body divides by a literal 0 mid-block. *)
let trap_loop b =
  let open Fpc_isa in
  let outer = Builder.new_label b and inner = Builder.new_label b in
  let emit = List.iter (Builder.emit b) in
  emit Opcode.[ Li 2; Sl 1 ];
  Builder.place b outer;
  emit Opcode.[ Lpd 50_000; Sl 0 ];
  Builder.place b inner;
  emit Opcode.[ Li 1; Li 0; Div; Ll 0; Li 1; Sub; Sl 0; Ll 0 ];
  Builder.jump b `Jnz inner;
  emit Opcode.[ Ll 1; Li 1; Sub; Sl 1; Ll 1 ];
  Builder.jump b `Jnz outer;
  emit Opcode.[ Lpd 4242; Out; Halt ]

(* (b) First steps whose depth guard fails: a straight run of 17 pushes,
   one more than the stack holds.  Each boundary's node fails its guard
   and retires one interpreter step, until a push overflows.  With
   [drop], a DROP on the empty stack comes first. *)
let guard_fail ~drop b =
  let open Fpc_isa in
  let emit = List.iter (Builder.emit b) in
  if drop then emit Opcode.[ Drop; Li 5; Out ];
  emit (List.init 17 (fun i -> Opcode.Li i));
  emit Opcode.[ Out; Lpd 4242; Out; Halt ]

(* (c) A DIV by a variable, a NEWREC and a FREEREC mid-block, three times
   round a loop; the last pass divides by a zero variable.  Then a NEWREC
   loop that never frees runs the frame heap out (a fatal trap). *)
let ends_node b =
  let open Fpc_isa in
  let loop = Builder.new_label b and leak = Builder.new_label b in
  let emit = List.iter (Builder.emit b) in
  emit Opcode.[ Li 3; Sl 1; Li 3; Sl 2 ];
  Builder.place b loop;
  emit Opcode.[ Li 100; Ll 1; Div; Out; Li 7; Newrec 2; Sl 3; Out ];
  emit Opcode.[ Ll 3; Li 5; Stfld 1; Ldfld 1; Out; Ll 3; Freerec ];
  emit Opcode.[ Li 9; Ll 2; Li 1; Sub; Sl 2; Ll 2; Div; Out; Ll 2 ];
  Builder.jump b `Jnz loop;
  emit Opcode.[ Lpd 4242; Out ];
  Builder.place b leak;
  emit Opcode.[ Li 1; Newrec 200; Drop; Out ];
  Builder.jump b `J leak

(* Runs [f] with the OCaml stack capped at 256 KiB: a run loop that
   re-installed its trap handler in non-tail position would grow the
   stack with every trap, and 100,000 traps overflow the cap. *)
let with_small_stack f =
  let limit = (Gc.get ()).Gc.stack_limit in
  let set words = Gc.set { (Gc.get ()) with Gc.stack_limit = words } in
  set (32 * 1024);
  Fun.protect ~finally:(fun () -> set limit) f

(* Each case on [engines], tier against interpreter: whole runs (under
   [with_small_stack]) and runs in fuel slices of 2, 3, 5, 7 and 11. *)
let check_exact cases =
  List.iter
    (fun (name, body, handled, engines, check) ->
      List.iter
        (fun (en, engine) ->
          let label = Printf.sprintf "%s/%s" name en in
          let image () = exact_image ~engine ~handled body in
          let interp _ ~max_steps st = Fpc_interp.Interp.run ~max_steps st in
          let tier img ~max_steps st =
            Fpc_tier.Tier.run ~max_steps (fst (Fpc_tier.Tier.of_image img)) st
          in
          let whole runner =
            let img = image () in
            let st = boot ~engine img in
            (match
               with_small_stack (fun () -> runner img ~max_steps:5_000_000 st)
             with
            | () -> ()
            | exception Stack_overflow ->
              Alcotest.fail (label ^ ": the OCaml stack grew with the traps"));
            observe st
          in
          let reference = whole interp in
          check label (fst reference);
          Alcotest.(check bool) (label ^ ": tier == interp") true
            (whole tier = reference);
          List.iter
            (fun slice ->
              let sliced runner =
                let img = image () in
                let st = boot ~engine img in
                run_sliced (runner img) st ~fuel:5_000_000 ~slice;
                observe st
              in
              let want = sliced interp in
              Alcotest.(check bool)
                (Printf.sprintf "%s/slice=%d: tier == interp" label slice)
                true (sliced tier = want);
              Alcotest.(check bool)
                (Printf.sprintf "%s/slice=%d: same as unsliced" label slice)
                true (want = reference))
            [ 2; 3; 5; 7; 11 ])
        engines)
    cases

let data_traced (en, engine) =
  (en ^ "+data", { engine with Fpc_core.Engine.collect_data_trace = true })

let test_trap_loop () =
  check_exact
    [
      ( "trap loop", trap_loop, true, engines (),
        fun label (o : Fpc_interp.Interp.outcome) ->
          Alcotest.(check bool) (label ^ ": halted") true
            (o.o_status = Fpc_core.State.Halted);
          Alcotest.(check (list int)) (label ^ ": output") [ 4242 ] o.o_output;
          (* 2 + 2 * (2 + 50,000 * (9 + the handler's RET) + 6) + 3 *)
          Alcotest.(check int) (label ^ ": 100,000 handler returns")
            1_000_021 o.o_instructions );
    ]

let test_guard_fails () =
  check_exact
    [
      ( "guard fails", guard_fail ~drop:true, true,
        engines () @ List.map data_traced (engines ()),
        fun label (o : Fpc_interp.Interp.outcome) ->
          Alcotest.(check bool) (label ^ ": halted") true
            (o.o_status = Fpc_core.State.Halted);
          Alcotest.(check bool) (label ^ ": ends with 4242") true
            (List.rev o.o_output |> List.hd = 4242) );
      ( "guard fails, fatal", guard_fail ~drop:false, false,
        engines () @ List.map data_traced (engines ()),
        fun label (o : Fpc_interp.Interp.outcome) ->
          Alcotest.(check bool) (label ^ ": stack overflow") true
            (o.o_status
            = Fpc_core.State.Trapped Fpc_core.State.Eval_overflow) );
    ]

let test_ends_node () =
  check_exact
    [
      ( "ends node", ends_node, true,
        engines () @ List.map data_traced (engines ()),
        fun label (o : Fpc_interp.Interp.outcome) ->
          Alcotest.(check bool) (label ^ ": frame heap exhausted") true
            (o.o_status
            = Fpc_core.State.Trapped Fpc_core.State.Frame_heap_exhausted);
          Alcotest.(check (list int)) (label ^ ": quotients and records")
            [ 33; 7; 5; 4; 33; 7; 5; 9; 33; 7; 5 ]
            (List.filteri (fun i _ -> i < 11) o.o_output);
          Alcotest.(check bool) (label ^ ": resumed after the trap") true
            (List.mem 4242 o.o_output) );
      ( "ends node, fatal", ends_node, false, engines (),
        fun label (o : Fpc_interp.Interp.outcome) ->
          Alcotest.(check bool) (label ^ ": division by zero") true
            (o.o_status = Fpc_core.State.Trapped Fpc_core.State.Div_zero) );
    ]

(* ---- the peepholes take any two-operand operator ---- *)

(* The fused idioms compute their operator by [Interp.binop], so every
   two-operand operator joins them: a sum as a branch condition, a
   comparison stored as a value, a DIV or MOD by a non-zero literal
   stored straight into a local.  Each shape loads its operands [x] and
   [y] from globals 0 and 1 into locals 0 and 1 and runs on all four
   engines (I4's locals take the bank plane), retiring every instruction
   in a fused batch.  A DIV by a literal 0 must stay out of its batch:
   it traps at an exact PC, under a handler that returns to the next
   instruction, and unhandled. *)
let shape_pairs =
  [ (3, 0xFFFD); (3, 4); (0x8000, 0x7FFF); (0xFFF9, 0); (0x7FFF, 0x7FFF); (0, 0x8000) ]

let shapes =
  let open Fpc_isa in
  let signed v = Fpc_util.Bits.signed_of_unsigned ~width:16 v in
  let word v = v land 0xFFFF in
  let emit b = List.iter (Builder.emit b) in
  let load b = emit b Opcode.[ Lg 0; Sl 0; Lg 1; Sl 1 ] in
  [
    ( "LOAD;LOAD;ADD;JZ", true,
      (fun b ->
        let zero = Builder.new_label b in
        load b;
        emit b Opcode.[ Ll 0; Ll 1; Add ];
        Builder.jump b `Jz zero;
        emit b Opcode.[ Li 1; Out; Halt ];
        Builder.place b zero;
        emit b Opcode.[ Li 2; Out; Halt ]),
      fun x y -> [ (if word (x + y) = 0 then 2 else 1) ] );
    ( "x := a < b", true,
      (fun b ->
        load b;
        emit b Opcode.[ Ll 0; Ll 1; Lt; Sl 2; Ll 2; Out; Halt ]),
      fun x y -> [ (if signed x < signed y then 1 else 0) ] );
    ( "LOAD;LI c;DIV;SL", true,
      (fun b ->
        load b;
        emit b
          Opcode.[ Ll 0; Li 7; Div; Sl 2; Ll 2; Out; Ll 1; Lpd 0xFFF9; Mod; Sl 3; Ll 3; Out; Halt ]),
      fun x y -> [ word (signed x / 7); word (signed y mod -7) ] );
    ( "LI 0;DIV", false,
      (fun b ->
        load b;
        emit b Opcode.[ Ll 0; Li 0; Div; Li 5; Out; Halt ]),
      fun _ _ -> [ 5 ] );
  ]

let test_peephole_shapes () =
  List.iter
    (fun (name, fuses, body, expect) ->
      List.iter
        (fun (x, y) ->
          List.iter
            (fun handled ->
              List.iter
                (fun (en, engine) ->
                  let label =
                    Printf.sprintf "%s x=%d y=%d handled=%b/%s" name x y handled en
                  in
                  let run runner =
                    let img = exact_image ~globals:[ x; y ] ~engine ~handled body in
                    let st = boot ~engine img in
                    runner img st;
                    (observe st, st.metrics)
                  in
                  let reference, _ =
                    run (fun _ st -> Fpc_interp.Interp.run ~max_steps:1_000 st)
                  in
                  let got, m =
                    run (fun img st ->
                        Fpc_tier.Tier.run ~max_steps:1_000
                          (fst (Fpc_tier.Tier.of_image img))
                          st)
                  in
                  let o = fst reference in
                  (if fuses || handled then begin
                     Alcotest.(check (list int)) (label ^ ": output") (expect x y)
                       o.Fpc_interp.Interp.o_output;
                     Alcotest.(check bool) (label ^ ": halted") true
                       (o.o_status = Fpc_core.State.Halted)
                   end
                   else
                     Alcotest.(check bool) (label ^ ": division by zero") true
                       (o.o_status = Fpc_core.State.Trapped Fpc_core.State.Div_zero));
                  Alcotest.(check bool) (label ^ ": tier == interp") true (got = reference);
                  if fuses then
                    Alcotest.(check int) (label ^ ": every instruction fused")
                      m.Fpc_core.State.instructions m.tier_super_instrs)
                (engines ()))
            (if fuses then [ false ] else [ false; true ]))
        shape_pairs)
    shapes

(* ---- the data-reference stream is part of the contract ---- *)

(* E9's engine flag records every storage reference, in order.  A
   traced batch must reach the queue in exactly the interpreter's order,
   so no fused plane may run while the queue is open. *)
let data_trace_run runner ~engine source =
  let engine = { engine with Fpc_core.Engine.collect_data_trace = true } in
  let image = image_for ~engine source in
  let st = boot ~engine image in
  runner image st;
  match st.Fpc_core.State.data_trace with
  | Some q -> (observe st, q)
  | None -> Alcotest.fail "collect_data_trace opened no queue"

(* Index of the first reference where two streams differ, or -1. *)
let first_difference q1 q2 =
  let rec go i s1 s2 =
    match (s1 (), s2 ()) with
    | Seq.Nil, Seq.Nil -> -1
    | Seq.Cons (r1, s1), Seq.Cons (r2, s2) ->
      if r1 = r2 then go (i + 1) s1 s2 else i
    | _ -> i
  in
  go 0 (Queue.to_seq q1) (Queue.to_seq q2)

let test_data_trace_equivalence () =
  List.iter
    (fun prog ->
      let source = Fpc_workload.Programs.find prog in
      List.iter
        (fun (en, engine) ->
          let ro, rq =
            data_trace_run
              (fun _image st -> Fpc_interp.Interp.run ~max_steps:2_000_000 st)
              ~engine source
          in
          let go, gq =
            data_trace_run
              (fun image st ->
                let tier, _ = Fpc_tier.Tier.of_image image in
                Fpc_tier.Tier.run ~max_steps:2_000_000 tier st)
              ~engine source
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: tier == interp" prog en)
            true (go = ro);
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: first differing data reference" prog en)
            (-1) (first_difference rq gq))
        (engines ()))
    Fpc_workload.Programs.names

(* ---- traced runs: the profile is part of the contract ---- *)

let profile_of runner ~engine source =
  let image = image_for ~engine source in
  let p = Fpc_interp.Profiler.create ~image ~engine () in
  let st = boot ~tracer:p.Fpc_interp.Profiler.sink ~engine image in
  runner image st;
  let o = Fpc_interp.Interp.outcome st in
  ignore
    (Fpc_trace.Profile.finish p.Fpc_interp.Profiler.profile
       ~cycles:o.Fpc_interp.Interp.o_cycles
       ~mem_refs:o.Fpc_interp.Interp.o_mem_refs);
  (observe st, Fpc_trace.Profile.summary p.Fpc_interp.Profiler.profile)

let test_traced_profile_equivalence () =
  List.iter
    (fun source ->
      List.iter
        (fun (en, engine) ->
          let ro, rp =
            profile_of
              (fun _image st -> Fpc_interp.Interp.run ~max_steps:500_000 st)
              ~engine source
          in
          let go, gp =
            profile_of
              (fun image st ->
                let tier, _ = Fpc_tier.Tier.of_image image in
                Fpc_tier.Tier.run ~max_steps:500_000 tier st)
              ~engine source
          in
          Alcotest.(check bool) ("traced outcome/" ^ en) true (go = ro);
          Alcotest.(check bool) ("traced profile/" ^ en) true (gp = rp))
        (engines ()))
    [ Fpc_workload.Programs.find "fib"; div_zero_src ]

(* ---- the differential property: random programs, all engines ---- *)

let tier_differential_prop =
  QCheck.Test.make ~count:40
    ~name:"compiled tier == interpreter on random programs (all engines)"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 10_000))
    (fun seed ->
      (* odd seeds add coroutine round-trips so the same differential
         sweep also covers non-LIFO XFER and RETCTX; every third seed
         tilts call-dense so fusable and unfusable call shapes both
         appear (rate 0.0 keeps the historical programs byte-identical) *)
      let coroutine_rate = if seed mod 2 = 0 then 0.0 else 0.5 in
      let leaf_call_rate = if seed mod 3 = 0 then 0.0 else 0.4 in
      let source =
        Fpc_workload.Synthetic.random_program ~coroutine_rate ~leaf_call_rate
          ~seed ()
      in
      List.for_all
        (fun (en, engine) ->
          let reference = interp_observe ~engine ~max_steps:300_000 source in
          let got, _ = tier_observe ~engine ~max_steps:300_000 source in
          if got <> reference then
            QCheck.Test.fail_reportf "seed %d diverged under %s" seed en
          else
            let r_traced, r_prof =
              profile_of
                (fun _image st -> Fpc_interp.Interp.run ~max_steps:300_000 st)
                ~engine source
            in
            let g_traced, g_prof =
              profile_of
                (fun image st ->
                  let tier, _ = Fpc_tier.Tier.of_image image in
                  Fpc_tier.Tier.run ~max_steps:300_000 tier st)
                ~engine source
            in
            if (g_traced, g_prof) <> (r_traced, r_prof) then
              QCheck.Test.fail_reportf "seed %d traced run diverged under %s"
                seed en
            else true)
        (engines ()))

(* ---- cross-call fusion engages on the call-dense kernels ---- *)

(* Every engine must retire fused calls on the kernels built for them —
   coverage is exact (simulated counters), so this pins the optimisation
   on rather than trusting the wall clock. *)
let test_fused_calls_engage () =
  List.iter
    (fun prog ->
      let src = Fpc_workload.Programs.find prog in
      List.iter
        (fun (en, engine) ->
          let _obs, m = tier_observe ~engine ~max_steps:2_000_000 src in
          let label what = Printf.sprintf "%s/%s: %s" prog en what in
          Alcotest.(check bool) (label "fused calls retired") true
            (m.Fpc_core.State.tier_fused_calls > 0);
          Alcotest.(check bool) (label "fused within calls") true
            (m.Fpc_core.State.tier_fused_calls <= m.Fpc_core.State.calls))
        (engines ()))
    Fpc_workload.Programs.call_dense;
  (* The fully-fusable kernels reach 100% coverage: every call retires
     through a spliced leaf. *)
  List.iter
    (fun prog ->
      let src = Fpc_workload.Programs.find prog in
      let _obs, m =
        tier_observe ~engine:Fpc_core.Engine.i2 ~max_steps:2_000_000 src
      in
      Alcotest.(check int)
        (prog ^ ": full fused-call coverage")
        m.Fpc_core.State.calls m.Fpc_core.State.tier_fused_calls)
    [ "fibleaf"; "xleaf"; "polyleaf" ]

(* ---- lazy per-procedure translation ---- *)

(* A procedure nothing calls must never be translated; procedures are
   translated on first entry (cold) and found already filled on the next
   run over the shared attachment (warm). *)
let lazy_src =
  "MODULE Main;\n\
   PROC used(x: INT): INT =\n  RETURN x + 1;\nEND;\n\
   PROC unused(x: INT): INT =\n  RETURN x * 37;\nEND;\n\
   PROC main() =\n  OUTPUT used(41);\nEND;\nEND;\n"

let test_lazy_translation () =
  let engine = Fpc_core.Engine.i2 in
  let image = image_for ~engine lazy_src in
  let tier, _ = Fpc_tier.Tier.of_image image in
  Alcotest.(check int) "nothing translated at attach" 0
    (Fpc_tier.Tier.procs_translated tier);
  let cold = boot ~engine image in
  Fpc_tier.Tier.run tier cold;
  Alcotest.(check bool) "cold run translates on entry" true
    (cold.Fpc_core.State.metrics.Fpc_core.State.tier_lazy_translations > 0);
  Alcotest.(check bool) "translation count < procedure count" true
    (Fpc_tier.Tier.procs_translated tier < Fpc_tier.Tier.procs tier);
  let warm = boot ~engine image in
  Fpc_tier.Tier.run tier warm;
  Alcotest.(check int) "warm run translates nothing" 0
    (warm.Fpc_core.State.metrics.Fpc_core.State.tier_lazy_translations);
  Alcotest.(check bool) "both runs halted" true
    (cold.Fpc_core.State.status = Fpc_core.State.Halted
    && warm.Fpc_core.State.status = Fpc_core.State.Halted)

(* ---- relink after translate: the deopt protocol ---- *)

(* External-linkage conventions for every engine, so each has a live LV
   table to rebind mid-run. *)
let relink_engines () =
  [
    ("i1", Fpc_core.Engine.i1, Fpc_compiler.Convention.external_);
    ("i2", Fpc_core.Engine.i2, Fpc_compiler.Convention.external_);
    ("i3", Fpc_core.Engine.i3 (), Fpc_compiler.Convention.external_);
    ( "i4",
      Fpc_core.Engine.i4 (),
      Fpc_compiler.Convention.banked ~linkage:Fpc_mesa.Image.External () );
  ]

let relink_source ~n ~c =
  Printf.sprintf
    "MODULE Lib;\n\
     PROC inc(x: INT): INT =\n  RETURN x + %d;\nEND;\n\
     PROC trip(x: INT): INT =\n  RETURN x * 3 + 1;\nEND;\nEND;\n\n\
     MODULE Main;\nIMPORT Lib;\n\
     PROC main() =\n\
     \  VAR acc: INT := 1;\n\
     \  VAR i: INT := 0;\n\
     \  WHILE i < %d DO\n\
     \    acc := Lib.inc(acc);\n\
     \    i := i + 1;\n\
     \  END;\n\
     \  OUTPUT acc;\n\
     END;\nEND;\n"
    c n

let relink_image ~convention source =
  match Fpc_compiler.Compile.image ~convention source with
  | Ok image -> image
  | Error m -> Alcotest.fail ("relink compile: " ^ m)

let lv_index_of image ~instance ~target =
  let ii = Fpc_mesa.Image.find_instance image instance in
  let imports = ii.Fpc_mesa.Image.ii_imports in
  let rec go i =
    if i >= Array.length imports then
      Alcotest.fail "relink: import not found"
    else if imports.(i) = target then i
    else go (i + 1)
  in
  go 0

(* Pause the run at [pause] retired instructions, re-point Main's import
   of Lib.inc at Lib.trip, and continue to completion. *)
let run_with_relink ~pause runner image (st : Fpc_core.State.t) =
  runner ~max_steps:pause st;
  (match st.status with
  | Fpc_core.State.Trapped Fpc_core.State.Step_limit ->
    st.status <- Fpc_core.State.Running
  | _ -> ());
  let lv_index = lv_index_of image ~instance:"Main" ~target:("Lib", "inc") in
  (match st.simple with
  | Some sl ->
    Fpc_core.Simple_links.rebind sl image ~instance:"Main" ~lv_index
      ~target:("Lib", "trip")
  | None ->
    Fpc_mesa.Linker.rebind_lv image ~instance:"Main" ~lv_index
      ~target:("Lib", "trip"));
  runner ~max_steps:2_000_000 st

let relink_deopt_prop =
  QCheck.Test.make ~count:25
    ~name:"mid-run relink deopts cleanly (all engines, both tiers)"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 10_000))
    (fun seed ->
      let n = 40 + (seed mod 120) in
      let c = 1 + (seed mod 9) in
      let pause = 20 + (7 * seed mod 700) in
      let source = relink_source ~n ~c in
      List.for_all
        (fun (en, engine, convention) ->
          let reference =
            let image = relink_image ~convention source in
            let st = boot ~engine image in
            run_with_relink ~pause
              (fun ~max_steps st -> Fpc_interp.Interp.run ~max_steps st)
              image st;
            observe st
          in
          let image = relink_image ~convention source in
          let st = boot ~engine image in
          let tier, _ = Fpc_tier.Tier.of_image image in
          run_with_relink ~pause
            (fun ~max_steps st -> Fpc_tier.Tier.run ~max_steps tier st)
            image st;
          if observe st <> reference then
            QCheck.Test.fail_reportf "seed %d relink diverged under %s" seed en
          else true)
        (relink_engines ()))

(* The deterministic half: a mid-run host rebind really lands (the
   output changes) on a translated image, and the run still halts. *)
let test_rebind_lands () =
  let convention = Fpc_compiler.Convention.external_ in
  let engine = Fpc_core.Engine.i2 in
  let source = relink_source ~n:50 ~c:1 in
  let plain =
    let image = relink_image ~convention source in
    let st = boot ~engine image in
    let tier, _ = Fpc_tier.Tier.of_image image in
    Fpc_tier.Tier.run tier st;
    Fpc_core.State.output st
  in
  let image = relink_image ~convention source in
  let st = boot ~engine image in
  let tier, _ = Fpc_tier.Tier.of_image image in
  run_with_relink ~pause:100
    (fun ~max_steps st -> Fpc_tier.Tier.run ~max_steps tier st)
    image st;
  Alcotest.(check bool) "rebound run halts" true
    (st.Fpc_core.State.status = Fpc_core.State.Halted);
  Alcotest.(check bool) "rebind changed the output" true
    (Fpc_core.State.output st <> plain)

(* ---- a program that stores into its own link vector ---- *)

(* Halfway through the loop, [Lib.poke]'s out-of-range [g[k] := v]
   overwrites the one word of Main's link to [Lib.inc] that a rebind to
   [Lib.trip] changes: the LV descriptor on the Mesa engines, the I1
   pair's entry word on I1.  Every call resolves live, on both tiers, so
   the store retargets the very next call. *)
let self_relink_src =
  {|
MODULE Lib;
VAR g: ARRAY 1 OF INT;
VAR k: INT := 1111;
VAR v: INT := 2222;
PROC inc(x: INT): INT =
  RETURN x + 1;
END;
PROC trip(x: INT): INT =
  RETURN x * 3 + 1;
END;
PROC poke() =
  g[k] := v;
END;
END;

MODULE Main;
IMPORT Lib;
PROC main() =
  VAR acc: INT := 1;
  VAR i: INT := 0;
  WHILE i < 40 DO
    IF i = 20 THEN
      Lib.poke();
    END;
    acc := Lib.inc(acc);
    i := i + 1;
  END;
  OUTPUT acc;
END;
END;
|}

(* [(addr, word)] of the single word a host rebind of Main's [Lib.inc]
   import to [Lib.trip] changes in the static region.  The rebind runs
   on a clone; under I1 the clone first gets the link tables a boot
   installs, at the same addresses. *)
let import_word ~engine image =
  let module Image = Fpc_mesa.Image in
  let module Memory = Fpc_machine.Memory in
  let scratch = Image.clone image in
  let lv_index = lv_index_of image ~instance:"Main" ~target:("Lib", "inc") in
  let target = ("Lib", "trip") in
  let rebind =
    match engine.Fpc_core.Engine.kind with
    | Fpc_core.Engine.Simple ->
      let sl = Fpc_core.Simple_links.install scratch in
      fun () ->
        Fpc_core.Simple_links.rebind sl scratch ~instance:"Main" ~lv_index
          ~target
    | Fpc_core.Engine.Mesa ->
      fun () ->
        Fpc_mesa.Linker.rebind_lv scratch ~instance:"Main" ~lv_index ~target
  in
  let lo = image.Image.layout.Fpc_mesa.Layout.static_base
  and hi = image.Image.layout.Fpc_mesa.Layout.heap_base in
  let peek i = Memory.peek scratch.mem (lo + i) in
  let before = Array.init (hi - lo) peek in
  rebind ();
  match
    List.filter
      (fun i -> peek i <> before.(i))
      (List.init (hi - lo) Fun.id)
  with
  | [ i ] -> (lo + i, peek i)
  | l -> Alcotest.failf "rebind changed %d words, not 1" (List.length l)

(* Tier and interpreter must agree on everything observable, and the
   tier must splice exactly the calls that land on the leaf their site
   was linked to: the interpreter's count of calls landing on the entry
   of [Lib.inc] or [Lib.poke].  No call lands on [Lib.trip]'s entry from
   a site linked to it, so its twenty calls run unspliced. *)
let test_self_relink () =
  let expected =
    let rec go acc i =
      if i = 40 then acc
      else go (if i < 20 then acc + 1 else (acc * 3) + 1) (i + 1)
    in
    go 1 0 land 0xFFFF
  in
  List.iter
    (fun (en, engine, convention) ->
      let image () =
        let image = relink_image ~convention self_relink_src in
        let addr, value = import_word ~engine image in
        aim_store ~instance:"Lib" image ~addr ~value;
        image
      in
      let label = "self-relink/" ^ en in
      let image_i = image () in
      let entry proc =
        Fpc_mesa.Image.entry_byte_address image_i ~instance:"Lib" ~proc + 1
      in
      let leaves = [ entry "inc"; entry "poke" ] in
      let landed = ref 0 and after_call = ref false in
      let sti = boot ~engine image_i in
      Fpc_interp.Interp.run_traced sti ~on_step:(fun ~pc_abs op _ ->
          if !after_call && List.mem pc_abs leaves then incr landed;
          after_call :=
            match op with
            | Fpc_isa.Opcode.(Lfc _ | Efc _ | Dfc _ | Sdfc _) -> true
            | _ -> false);
      let image_c = image () in
      let stc = boot ~engine image_c in
      Fpc_tier.Tier.run (fst (Fpc_tier.Tier.of_image image_c)) stc;
      Alcotest.(check (list int)) (label ^ ": the store retargeted the call")
        [ expected ] (Fpc_core.State.output sti);
      Alcotest.(check bool) (label ^ ": tier == interp") true
        (observe stc = observe sti);
      Alcotest.(check int) (label ^ ": fused calls") !landed
        stc.metrics.Fpc_core.State.tier_fused_calls;
      Alcotest.(check int) (label ^ ": Lib.inc and Lib.poke spliced") 21
        !landed)
    (relink_engines ())

(* ---- translation bookkeeping ---- *)

let test_translation_shape () =
  let src = Fpc_workload.Programs.find "fib" in
  let image = image_for ~engine:Fpc_core.Engine.i2 src in
  let tier = Fpc_tier.Tier.translate image in
  Alcotest.(check bool) "has boundaries" true (Fpc_tier.Tier.boundaries tier > 0);
  Alcotest.(check bool) "has fused blocks" true
    (Fpc_tier.Tier.fused_boundaries tier > 0);
  Alcotest.(check bool) "fused subset of boundaries" true
    (Fpc_tier.Tier.fused_boundaries tier <= Fpc_tier.Tier.boundaries tier);
  (* A clone shares the pristine image's attached translation. *)
  let t1, _ = Fpc_tier.Tier.of_image image in
  let clone = Fpc_mesa.Image.clone image in
  let t2, hit = Fpc_tier.Tier.of_image clone in
  Alcotest.(check bool) "clone hits the shared translation" true hit;
  Alcotest.(check bool) "same translation object" true (t1 == t2)

let () =
  Alcotest.run "tier"
    [
      ( "equivalence",
        [
          Alcotest.test_case "whole suite, all engines" `Slow
            test_suite_equivalence;
          Alcotest.test_case "fusion engages on fib" `Quick test_fusion_engages;
          Alcotest.test_case "traps, caught and fatal" `Quick
            test_trap_equivalence;
          Alcotest.test_case "frame-heap exhaustion at a call" `Quick
            test_frame_heap_exhaustion;
          Alcotest.test_case "programs writing their code region" `Quick
            test_code_region_writes;
          Alcotest.test_case "storage access past the store" `Quick
            (fun () ->
              test_out_of_range_storage ();
              test_static_past_store ());
          Alcotest.test_case "I1 XFER to a descriptor no instance owns" `Quick
            test_unowned_descriptor;
          Alcotest.test_case "trap while entering the handler" `Quick
            test_trap_in_handler_entry;
          Alcotest.test_case "fuel exhaustion at exact budgets" `Quick
            test_fuel_exhaustion_equivalence;
          Alcotest.test_case "sliced resume (deadline path)" `Quick
            test_sliced_resume_equivalence;
          Alcotest.test_case "budget edges: non-positive, max_int resume" `Quick
            test_budget_edges;
          Alcotest.test_case "DIV and MOD by a literal" `Quick
            test_divmod_literal;
          Alcotest.test_case "100,000 handled traps in constant stack" `Quick
            test_trap_loop;
          Alcotest.test_case "first-step depth guard failures" `Quick
            test_guard_fails;
          Alcotest.test_case "NEWREC, FREEREC and DIV end the node" `Quick
            test_ends_node;
          Alcotest.test_case "peepholes over any two-operand operator" `Quick
            test_peephole_shapes;
          Alcotest.test_case "traced profiles" `Slow
            test_traced_profile_equivalence;
          Alcotest.test_case "data-reference traces" `Quick
            test_data_trace_equivalence;
          QCheck_alcotest.to_alcotest tier_differential_prop;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "fused calls engage (call-dense suite)" `Quick
            test_fused_calls_engage;
          Alcotest.test_case "host rebind lands mid-run" `Quick
            test_rebind_lands;
          QCheck_alcotest.to_alcotest relink_deopt_prop;
          Alcotest.test_case "program stores into its own link vector" `Quick
            test_self_relink;
        ] );
      ( "translation",
        [
          Alcotest.test_case "shape and sharing" `Quick test_translation_shape;
          Alcotest.test_case "lazy per-procedure translation" `Quick
            test_lazy_translation;
        ] );
    ]
