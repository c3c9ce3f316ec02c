(* End-to-end machine tests over hand-assembled modules: the interpreter,
   transfer engines, linker and allocator working together. *)

open Fpc_isa

let build_proc ops =
  let b = Builder.create () in
  List.iter (Builder.emit b) ops;
  Builder.to_bytes b

let proc ?(fixups = []) ?(lpd = []) ~name ~locals ~nargs ops =
  {
    Fpc_mesa.Compiled.p_name = name;
    p_body = build_proc ops;
    p_locals_words = locals;
    p_nargs = nargs;
    p_dfc_fixups = fixups;
    p_lpd_fixups = lpd;
    p_efc_sites = [];
  }

(* fib as hand-written byte code; fib is entry 1 of the module. *)
let fib_body ~args_in_place =
  let open Opcode in
  let prologue = if args_in_place then [] else [ Sl 0 ] in
  prologue
  @ [
      Ll 0; Li 2; Lt; Jz 5 (* -> else at +5 from this Jz *);
      (* then: return n *)
      Ll 0; Ret;
      (* else: t := fib(n-1); return fib(n-2) + t *)
      Ll 0; Li 1; Sub; Lfc 1; Sl 1;
      Ll 0; Li 2; Sub; Lfc 1;
      Ll 1; Add; Ret;
    ]

(* Jump displacements are relative to the first byte of the jump; compute
   the layout by hand is fragile, so use a builder with labels instead. *)
let fib_proc ~args_in_place =
  let open Opcode in
  let b = Builder.create () in
  let else_ = Builder.new_label b in
  if not args_in_place then Builder.emit b (Sl 0);
  Builder.emit b (Ll 0);
  Builder.emit b (Li 2);
  Builder.emit b Lt;
  Builder.jump b `Jz else_;
  Builder.emit b (Ll 0);
  Builder.emit b Ret;
  Builder.place b else_;
  List.iter (Builder.emit b)
    [ Ll 0; Li 1; Sub; Lfc 1; Sl 1; Ll 0; Li 2; Sub; Lfc 1; Ll 1; Add; Ret ];
  {
    Fpc_mesa.Compiled.p_name = "fib";
    p_body = Builder.to_bytes b;
    p_locals_words = 2;
    p_nargs = 1;
    p_dfc_fixups = [];
    p_lpd_fixups = [];
    p_efc_sites = [];
  }

let fib_module ~args_in_place =
  let open Opcode in
  let main =
    proc ~name:"main" ~locals:0 ~nargs:0 [ Li 10; Lfc 1; Out; Ret ]
  in
  {
    Fpc_mesa.Compiled.m_name = "Main";
    m_globals_words = 0;
    m_global_init = [];
    m_imports = [||];
    m_procs = [ main; fib_proc ~args_in_place ];
  }

let link_exn ?linkage modules =
  match Fpc_mesa.Linker.link ?linkage modules with
  | Ok image -> image
  | Error msg -> Alcotest.fail ("link failed: " ^ msg)

let run_fib engine ~args_in_place =
  let image = link_exn [ fib_module ~args_in_place ] in
  let st =
    Fpc_interp.Interp.run_program ~image ~engine ~instance:"Main" ~proc:"main"
      ~args:[] ()
  in
  Fpc_interp.Interp.outcome st

let check_halted o =
  match o.Fpc_interp.Interp.o_status with
  | Fpc_core.State.Halted -> ()
  | Fpc_core.State.Running -> Alcotest.fail "still running"
  | Fpc_core.State.Trapped r ->
    Alcotest.fail ("trapped: " ^ Fpc_core.State.trap_reason_to_string r)

let test_fib_engine engine ~args_in_place () =
  let o = run_fib engine ~args_in_place in
  check_halted o;
  Alcotest.(check (list int)) "fib 10 output" [ 55 ] o.o_output

let test_fib_engines_agree () =
  let i2 = run_fib Fpc_core.Engine.i2 ~args_in_place:false in
  let i3 = run_fib (Fpc_core.Engine.i3 ()) ~args_in_place:false in
  let i1 = run_fib Fpc_core.Engine.i1 ~args_in_place:false in
  let i4 = run_fib (Fpc_core.Engine.i4 ()) ~args_in_place:true in
  Alcotest.(check (list int)) "I1 = I2 output" i2.o_output i1.o_output;
  Alcotest.(check (list int)) "I3 = I2 output" i2.o_output i3.o_output;
  Alcotest.(check (list int)) "I4 = I2 output" i2.o_output i4.o_output

let test_fib_costs_ordered () =
  let cycles e ~args_in_place = (run_fib e ~args_in_place).o_cycles in
  let i1 = cycles Fpc_core.Engine.i1 ~args_in_place:false in
  let i2 = cycles Fpc_core.Engine.i2 ~args_in_place:false in
  let i3 = cycles (Fpc_core.Engine.i3 ()) ~args_in_place:false in
  let i4 = cycles (Fpc_core.Engine.i4 ()) ~args_in_place:true in
  Alcotest.(check bool) "I2 cheaper than I1" true (i2 < i1);
  Alcotest.(check bool) "I3 cheaper than I2" true (i3 < i2);
  Alcotest.(check bool) "I4 cheaper than I3" true (i4 < i3)

(* ------------------------------------------------------------------ *)
(* Single-module machines for ISA-level behaviours. *)

let one_module ?(imports = [||]) ?(globals = 0) procs =
  { Fpc_mesa.Compiled.m_name = "M"; m_globals_words = globals; m_global_init = [];
    m_imports = imports; m_procs = procs }

let run_ops ?(engine = Fpc_core.Engine.i2) ?(locals = 4) ?(setup = fun _ -> ())
    ?(args = []) ops =
  let image = link_exn [ one_module [ proc ~name:"main" ~locals ~nargs:(List.length args) ops ] ] in
  setup image;
  let st =
    Fpc_interp.Interp.run_program ~image ~engine ~instance:"M" ~proc:"main" ~args ()
  in
  Fpc_interp.Interp.outcome st

let status_is expected (o : Fpc_interp.Interp.outcome) =
  match (expected, o.o_status) with
  | `Halted, Fpc_core.State.Halted -> ()
  | `Trap r, Fpc_core.State.Trapped r' when r = r' -> ()
  | _, Fpc_core.State.Halted -> Alcotest.fail "halted unexpectedly"
  | _, Fpc_core.State.Running -> Alcotest.fail "still running"
  | _, Fpc_core.State.Trapped r ->
    Alcotest.fail ("unexpected trap: " ^ Fpc_core.State.trap_reason_to_string r)

(* ---- arithmetic and 16-bit semantics ---- *)

let test_arithmetic_wraps () =
  let open Opcode in
  let o = run_ops [ Li 30000; Li 30000; Add; Out; Halt ] in
  status_is `Halted o;
  (* 60000 as a raw word. *)
  Alcotest.(check (list int)) "wraps to word" [ 60000 ] o.o_output;
  let o = run_ops [ Li 1; Li 2; Sub; Out; Halt ] in
  Alcotest.(check (list int)) "negative two's complement" [ 0xFFFF ] o.o_output

let test_signed_comparison () =
  let open Opcode in
  (* 0xFFFF is -1, so -1 < 1. *)
  let o = run_ops [ Li 0xFFFF; Li 1; Lt; Out; Halt ] in
  Alcotest.(check (list int)) "signed lt" [ 1 ] o.o_output

let test_division_signed () =
  let open Opcode in
  let o = run_ops [ Li 0xFFF9 (* -7 *); Li 2; Div; Out; Halt ] in
  (* OCaml-style truncation: -7 / 2 = -3 -> 0xFFFD *)
  Alcotest.(check (list int)) "signed division" [ 0xFFFD ] o.o_output

let test_indexed_locals () =
  let open Opcode in
  let o =
    run_ops ~locals:8
      [ Li 2; Li 77; Slx 3 (* local[3+2] := 77 *); Li 2; Llx 3; Out; Halt ]
  in
  Alcotest.(check (list int)) "indexed store/load" [ 77 ] o.o_output

(* ---- traps ---- *)

let test_div_zero_trap () =
  let open Opcode in
  let o = run_ops [ Li 4; Li 0; Div; Out; Halt ] in
  status_is (`Trap Fpc_core.State.Div_zero) o

let test_break_trap () =
  let o = run_ops [ Opcode.Brk; Opcode.Halt ] in
  status_is (`Trap Fpc_core.State.Break) o

let test_eval_overflow_trap () =
  let open Opcode in
  let b = Builder.create () in
  let loop = Builder.new_label b in
  Builder.place b loop;
  Builder.emit b (Li 1);
  Builder.jump b `J loop;
  let image =
    link_exn
      [ one_module
          [ { Fpc_mesa.Compiled.p_name = "main"; p_body = Builder.to_bytes b;
              p_locals_words = 1; p_nargs = 0; p_dfc_fixups = []; p_lpd_fixups = []; p_efc_sites = [] } ] ]
  in
  let st =
    Fpc_interp.Interp.run_program ~image ~engine:Fpc_core.Engine.i2 ~instance:"M"
      ~proc:"main" ~args:[] ()
  in
  status_is (`Trap Fpc_core.State.Eval_overflow) (Fpc_interp.Interp.outcome st)

let test_trap_handler_resumes () =
  (* Install a handler that supplies 9999 for the failed division; the
     faulting context resumes after DIV with the handler's result — a trap
     is just another XFER (§5.1). *)
  let open Opcode in
  let handler = proc ~name:"handler" ~locals:1 ~nargs:1 [ Sl 0; Li 9999; Ret ] in
  let main =
    proc ~name:"main" ~locals:1 ~nargs:0 [ Li 4; Li 0; Div; Out; Li 5; Out; Halt ]
  in
  let image = link_exn [ one_module [ main; handler ] ] in
  Fpc_mesa.Image.set_trap_handler image
    (Fpc_mesa.Image.descriptor_of image ~instance:"M" ~proc:"handler");
  let st =
    Fpc_interp.Interp.run_program ~image ~engine:Fpc_core.Engine.i2 ~instance:"M"
      ~proc:"main" ~args:[] ()
  in
  let o = Fpc_interp.Interp.outcome st in
  status_is `Halted o;
  Alcotest.(check (list int)) "handler result replaces quotient" [ 9999; 5 ] o.o_output

let test_trap_handler_sees_code () =
  let open Opcode in
  (* The handler OUTPUTs the trap code it received as its argument. *)
  let handler = proc ~name:"handler" ~locals:1 ~nargs:1 [ Sl 0; Ll 0; Out; Li 0; Ret ] in
  let main = proc ~name:"main" ~locals:1 ~nargs:0 [ Brk; Drop; Halt ] in
  let image = link_exn [ one_module [ main; handler ] ] in
  Fpc_mesa.Image.set_trap_handler image
    (Fpc_mesa.Image.descriptor_of image ~instance:"M" ~proc:"handler");
  let st =
    Fpc_interp.Interp.run_program ~image ~engine:Fpc_core.Engine.i2 ~instance:"M"
      ~proc:"main" ~args:[] ()
  in
  let o = Fpc_interp.Interp.outcome st in
  status_is `Halted o;
  Alcotest.(check (list int)) "BRK code is 5"
    [ Fpc_core.State.trap_code Fpc_core.State.Break ]
    o.o_output

let test_illegal_instruction_fatal () =
  (* 0xFF is not an opcode; no handler can catch it. *)
  let body = Bytes.of_string "\xFF" in
  let image =
    link_exn
      [ one_module
          [ { Fpc_mesa.Compiled.p_name = "main"; p_body = body; p_locals_words = 1;
              p_nargs = 0; p_dfc_fixups = []; p_lpd_fixups = []; p_efc_sites = [] } ] ]
  in
  let st =
    Fpc_interp.Interp.run_program ~image ~engine:Fpc_core.Engine.i2 ~instance:"M"
      ~proc:"main" ~args:[] ()
  in
  status_is (`Trap (Fpc_core.State.Illegal_instruction 0xFF))
    (Fpc_interp.Interp.outcome st)

let test_step_limit () =
  let open Opcode in
  let b = Builder.create () in
  let loop = Builder.new_label b in
  Builder.place b loop;
  Builder.emit b Nop;
  Builder.jump b `J loop;
  let image =
    link_exn
      [ one_module
          [ { Fpc_mesa.Compiled.p_name = "main"; p_body = Builder.to_bytes b;
              p_locals_words = 1; p_nargs = 0; p_dfc_fixups = []; p_lpd_fixups = []; p_efc_sites = [] } ] ]
  in
  let st =
    Fpc_interp.Interp.run_program ~max_steps:1000 ~image ~engine:Fpc_core.Engine.i2
      ~instance:"M" ~proc:"main" ~args:[] ()
  in
  status_is (`Trap Fpc_core.State.Step_limit) (Fpc_interp.Interp.outcome st)

(* ---- long argument records (§4) ---- *)

let test_long_argument_record () =
  let open Opcode in
  (* Caller builds a 3-field record on the frame heap and passes its
     address; the callee reads the fields and frees the record. *)
  let callee =
    proc ~name:"sum3" ~locals:2 ~nargs:1
      [
        Sl 0; (* record address *)
        Ll 0; Ldfld 0; Ll 0; Ldfld 1; Add; Ll 0; Ldfld 2; Add; Sl 1;
        Ll 0; Freerec;
        Ll 1; Ret;
      ]
  in
  let main =
    proc ~name:"main" ~locals:1 ~nargs:0
      [
        Newrec 3;
        Li 10; Stfld 0;
        Li 20; Stfld 1;
        Li 12; Stfld 2;
        Lfc 1; Out; Halt;
      ]
  in
  let image = link_exn [ one_module [ main; callee ] ] in
  let st =
    Fpc_interp.Interp.run_program ~image ~engine:Fpc_core.Engine.i2 ~instance:"M"
      ~proc:"main" ~args:[] ()
  in
  let o = Fpc_interp.Interp.outcome st in
  status_is `Halted o;
  Alcotest.(check (list int)) "record fields summed" [ 42 ] o.o_output

(* ---- interface records (§3/§4: LOADLITERAL i; READFIELD f; XFER) ---- *)

let test_interface_record_call () =
  let open Opcode in
  (* Two procedures published through a two-slot interface record; the
     client calls slot 1 knowing only the record's address. *)
  let double = proc ~name:"double" ~locals:1 ~nargs:1 [ Sl 0; Ll 0; Li 2; Mul; Ret ] in
  let triple = proc ~name:"triple" ~locals:1 ~nargs:1 [ Sl 0; Ll 0; Li 3; Mul; Ret ] in
  let main =
    proc ~name:"main" ~locals:1 ~nargs:0
      [ Li 7; Li 8; Ldfld 1; Xf; Out; Halt ]
    (* stack: [7, iface@8+1 -> descriptor]; XF creates the activation *)
  in
  let image = link_exn [ one_module [ main; double; triple ] ] in
  (* Build the interface record in the reserved low words (8 and 9). *)
  let d1 = Fpc_mesa.Image.descriptor_of image ~instance:"M" ~proc:"double" in
  let d2 = Fpc_mesa.Image.descriptor_of image ~instance:"M" ~proc:"triple" in
  Fpc_machine.Memory.poke image.mem 8 (Fpc_mesa.Descriptor.pack d1);
  Fpc_machine.Memory.poke image.mem 9 (Fpc_mesa.Descriptor.pack d2);
  let st =
    Fpc_interp.Interp.run_program ~image ~engine:Fpc_core.Engine.i2 ~instance:"M"
      ~proc:"main" ~args:[] ()
  in
  let o = Fpc_interp.Interp.outcome st in
  status_is `Halted o;
  (* Slot 1 is triple; the procedure returns to main because XF set the
     returnContext, and RET follows it (F1/F3). *)
  Alcotest.(check (list int)) "triple via interface" [ 21 ] o.o_output

let test_interface_module_api () =
  let open Opcode in
  (* Same scenario through the public Fpc_core.Interface API, including a
     rebind between runs. *)
  let double = proc ~name:"double" ~locals:1 ~nargs:1 [ Sl 0; Ll 0; Li 2; Mul; Ret ] in
  let triple = proc ~name:"triple" ~locals:1 ~nargs:1 [ Sl 0; Ll 0; Li 3; Mul; Ret ] in
  (* The client body is assembled after the interface exists, since the
     record address is a literal in the call sequence. *)
  let dummy_main = proc ~name:"main" ~locals:1 ~nargs:0 [ Halt ] in
  let image = link_exn [ one_module [ dummy_main; double; triple ] ] in
  let iface =
    Fpc_core.Interface.create image
      ~slots:[| ("M", "double"); ("M", "triple") |]
  in
  Alcotest.(check int) "slot lookup" 1
    (Fpc_core.Interface.slot_index iface ~proc:"triple");
  (* Write a fresh client body; main's dummy body is 1 byte, so park the
     new one in fresh code space and repoint main's EV entry. *)
  let b = Builder.create () in
  Builder.emit b (Li 7);
  List.iter (Builder.emit b) (Fpc_core.Interface.call_sequence iface ~slot:0);
  Builder.emit b Out;
  Builder.emit b Halt;
  let body = Builder.to_bytes b in
  let pi = Fpc_mesa.Image.find_proc image ~instance:"M" ~proc:"main" in
  let cb = (Fpc_mesa.Image.find_instance image "M").ii_code_base in
  let words = Fpc_machine.Memory.words_for_bytes (Bytes.length body + 1) in
  let new_base = Fpc_mesa.Image.alloc_code image ~words in
  let new_off = (new_base * 2) - (cb * 2) in
  Fpc_machine.Memory.poke_code_byte image.mem ~code_base:new_base ~pc:0 pi.pi_fsi;
  Bytes.iteri
    (fun i c ->
      Fpc_machine.Memory.poke_code_byte image.mem ~code_base:new_base ~pc:(i + 1)
        (Char.code c))
    body;
  Fpc_machine.Memory.poke image.mem (cb + pi.pi_ev) new_off;
  Hashtbl.replace image.Fpc_mesa.Image.dir.Fpc_mesa.Image.procs ("M", "main")
    { pi with Fpc_mesa.Image.pi_entry_offset = new_off;
      pi_body_bytes = Bytes.length body };
  let run () =
    let st =
      Fpc_interp.Interp.run_program ~image ~engine:Fpc_core.Engine.i2 ~instance:"M"
        ~proc:"main" ~args:[] ()
    in
    let o = Fpc_interp.Interp.outcome st in
    status_is `Halted o;
    o.o_output
  in
  Alcotest.(check (list int)) "slot 0 is double" [ 14 ] (run ());
  Fpc_core.Interface.rebind image iface ~slot:0 ~target:("M", "triple");
  Alcotest.(check (list int)) "rebound to triple, no code change" [ 21 ] (run ())

(* ---- F3: a rebound LV entry turns a call into a coroutine resume ---- *)

(* The partner context word lands in main's local 0; rebinding LV[0] to
   that frame mid-run exercises Linker.rebind_lv_to_frame: the subsequent
   EXTERNALCALL resumes the coroutine — the destination decides. *)
let test_lv_rebind_to_frame_full () =
  let open Opcode in
  let partner =
    proc ~name:"partner" ~locals:1 ~nargs:0
      [ Li 1; Out; Lrc; Xf; Li 2; Out; Halt ]
  in
  let main =
    proc ~name:"main" ~locals:1 ~nargs:0
      [ Lpd 0; Xf; Lrc; Sl 0 (* partner ctx *); Li 0; Out; Efc 0; Halt ]
  in
  let m =
    { Fpc_mesa.Compiled.m_name = "M"; m_globals_words = 0; m_global_init = [];
      m_imports = [| ("M", "partner") |];
      m_procs = [ { main with p_lpd_fixups = [ (0, 0) ] }; partner ] }
  in
  let image = link_exn [ m ] in
  let st =
    Fpc_interp.Interp.boot ~image ~engine:Fpc_core.Engine.i2 ~instance:"M"
      ~proc:"main" ~args:[] ()
  in
  (* Step until main has emitted the 0 marker (partner suspended). *)
  let rec go () =
    if Fpc_core.State.output st <> [ 1; 0 ] && st.status = Fpc_core.State.Running
    then begin
      Fpc_interp.Interp.step st;
      go ()
    end
  in
  go ();
  (* The partner's frame context is in main's local 0. *)
  let partner_lf = Fpc_machine.Memory.peek image.mem (st.lf + 0) in
  Fpc_mesa.Linker.rebind_lv_to_frame image ~instance:"M" ~lv_index:0 ~lf:partner_lf;
  Fpc_interp.Interp.run st;
  let o = Fpc_interp.Interp.outcome st in
  status_is `Halted o;
  Alcotest.(check (list int)) "EFC became a coroutine resume (F3)" [ 1; 0; 2 ]
    o.o_output

(* ---- retained frames: the coroutine partner outlives many returns ---- *)

let test_retained_frame_across_engines () =
  let open Opcode in
  let co =
    proc ~name:"co" ~locals:2 ~nargs:1
      [
        Sl 0; (* v *)
        Lrc; Sl 1; (* partner *)
        Ll 0; Li 1; Add; Ll 1; Xf; (* send v+1 back *)
        Sl 0; Lrc; Sl 1;
        Ll 0; Li 10; Mul; Ll 1; Xf;
        Drop; Li 0; Ret;
      ]
  in
  let main =
    proc ~name:"main" ~locals:1 ~nargs:0
      [
        Li 5; Lpd 0; Xf; (* start co with 5 -> get 6 *)
        Out;
        Li 7; Lrc; Xf; (* resume with 7 -> get 70 *)
        Out; Halt;
      ]
  in
  let m =
    { Fpc_mesa.Compiled.m_name = "M"; m_globals_words = 0; m_global_init = [];
      m_imports = [| ("M", "co") |];
      m_procs = [ { main with p_lpd_fixups = [ (1, 0) ] }; co ] }
  in
  List.iter
    (fun engine ->
      (* Hand-built code stores arguments itself, so only non-banked
         engines apply. *)
      let image = link_exn [ m ] in
      let st =
        Fpc_interp.Interp.run_program ~image ~engine ~instance:"M" ~proc:"main"
          ~args:[] ()
      in
      let o = Fpc_interp.Interp.outcome st in
      status_is `Halted o;
      Alcotest.(check (list int)) "retained frame" [ 6; 70 ] o.o_output)
    [ Fpc_core.Engine.i1; Fpc_core.Engine.i2; Fpc_core.Engine.i3 () ]

(* ---- arguments appear for boot ---- *)

let test_boot_args () =
  let open Opcode in
  let o = run_ops ~args:[ 30; 12 ] ~locals:2 [ Sl 1; Sl 0; Ll 0; Ll 1; Sub; Out; Halt ] in
  status_is `Halted o;
  Alcotest.(check (list int)) "args arrive" [ 18 ] o.o_output

(* ---- frame heap exhaustion is a clean stop ---- *)

let test_runaway_recursion_stops () =
  let open Opcode in
  let b = Builder.create () in
  Builder.emit b (Lfc 0);
  Builder.emit b Ret;
  let image =
    link_exn
      [ one_module
          [ { Fpc_mesa.Compiled.p_name = "main"; p_body = Builder.to_bytes b;
              p_locals_words = 1; p_nargs = 0; p_dfc_fixups = []; p_lpd_fixups = []; p_efc_sites = [] } ] ]
  in
  let st =
    Fpc_interp.Interp.run_program ~image ~engine:Fpc_core.Engine.i2 ~instance:"M"
      ~proc:"main" ~args:[] ()
  in
  status_is (`Trap Fpc_core.State.Frame_heap_exhausted) (Fpc_interp.Interp.outcome st)

(* ---- every two-operand operator's value, under both executors ---- *)

(* The word [op] leaves for left operand [a] and right operand [b],
   worked out here from the operators' definitions rather than by
   [Interp.binop]: operands are signed 16-bit words, results truncate to
   a word, comparisons give 1 or 0, and DIV and MOD truncate toward zero
   (a quotient's magnitude is |a| / |b| of non-negative ints, and the
   remainder takes the dividend's sign).  [None]: a zero divisor, which
   traps. *)
let expected_binop (op : Opcode.t) a b =
  let signed v = if v >= 0x8000 then v - 0x10000 else v in
  let word v = v land 0xFFFF in
  let x = signed a and y = signed b in
  let truth c = Some (if c then 1 else 0) in
  let quotient () =
    let q = abs x / abs y in
    if (x < 0) <> (y < 0) then -q else q
  in
  match op with
  | Add -> Some (word (x + y))
  | Sub -> Some (word (x - y))
  | Mul -> Some (word (x * y))
  | Div -> if y = 0 then None else Some (word (quotient ()))
  | Mod -> if y = 0 then None else Some (word (x - (y * quotient ())))
  | Band -> Some (a land b)
  | Bor -> Some (a lor b)
  | Bxor -> Some (a lxor b)
  | Lt -> truth (x < y)
  | Le -> truth (x <= y)
  | Eq -> truth (x = y)
  | Ne -> truth (x <> y)
  | Ge -> truth (x >= y)
  | Gt -> truth (x > y)
  | _ -> invalid_arg "expected_binop"

let binops = Opcode.[ Add; Sub; Mul; Div; Mod; Band; Bor; Bxor; Lt; Le; Eq; Ne; Ge; Gt ]

(* Every pair of edge words, the signs of -7 and 2 (where truncating and
   floor division part), and random pairs. *)
let binop_pairs =
  let edges = [ 0; 1; 0x7FFF; 0x8000; 0xFFFF ] in
  let rs = Random.State.make [| 27 |] in
  List.concat_map (fun a -> List.map (fun b -> (a, b)) edges) edges
  @ [ (0xFFF9, 2); (7, 0xFFFE); (0xFFF9, 0xFFFE); (7, 2) ]
  @ List.init 40 (fun _ -> (Random.State.int rs 0x10000, Random.State.int rs 0x10000))

(* Each case runs as a program under [Interp.run] and [Tier.run]: once
   with both operands literals (a fused batch in the tier) and once with
   them passed through the stack, so the operator stands alone.  Every
   case runs before the check, which names each one that went wrong. *)
let test_binop_values () =
  let wrong = ref [] in
  List.iter
    (fun op ->
      List.iter
        (fun (a, b) ->
          let want =
            match expected_binop op a b with
            | Some v -> ([ v ], Fpc_core.State.Halted)
            | None -> ([], Fpc_core.State.Trapped Fpc_core.State.Div_zero)
          in
          List.iter
            (fun (shape, body) ->
              let image = link_exn [ one_module [ proc ~name:"main" ~locals:4 ~nargs:0 body ] ] in
              let tier = Fpc_tier.Tier.translate image in
              List.iter
                (fun (executor, run) ->
                  let st =
                    Fpc_interp.Interp.boot ~image:(Fpc_mesa.Image.clone image)
                      ~engine:Fpc_core.Engine.i2 ~instance:"M" ~proc:"main" ~args:[] ()
                  in
                  run st;
                  if (Fpc_core.State.output st, st.status) <> want then
                    wrong :=
                      Printf.sprintf "%s %d %d (%s) under %s" (Opcode.to_string op) a b
                        shape executor
                      :: !wrong)
                [
                  ("interp", fun st -> Fpc_interp.Interp.run st);
                  ("tier", fun st -> Fpc_tier.Tier.run tier st);
                ])
            Opcode.
              [
                ("literals", [ Lpd a; Lpd b; op; Out; Halt ]);
                ("stack", [ Lpd a; Lpd b; Swap; Swap; op; Out; Halt ]);
              ])
        binop_pairs)
    binops;
  Alcotest.(check (list string)) "cases with a wrong value" [] (List.rev !wrong)

(* ---- the effect table against the interpreter ---- *)

(* [Opcode.effects] is what the compiled tier and CFA read instead of the
   interpreter, so every field of it is checked here against what
   [Interp.exec] does: one random instance of every instruction, on a
   machine booted into a frame of 8 locals under 16 globals, with a random
   evaluation stack (any depth, words small or arbitrary), random locals
   and globals, and register banks off (I2) and on (I4), data trace on. *)

let effect_image =
  link_exn
    [
      {
        Fpc_mesa.Compiled.m_name = "Main";
        m_globals_words = 16;
        m_global_init = [];
        m_imports = [||];
        m_procs = [ proc ~name:"main" ~locals:8 ~nargs:0 [ Opcode.Halt ] ];
      };
    ]

(* Every instruction form once, with random operands: static offsets
   mostly inside the frame, sometimes past it. *)
let every_op rs =
  let open Opcode in
  let int n = Random.State.int rs n in
  let local () = if int 4 = 0 then int 256 else int 8 in
  let global () = if int 4 = 0 then int 256 else int 16 in
  let disp () = int 200 - 100 in
  [
    Li (int 0x10000); Lpd (int 0x10000); Ll (local ()); Sl (local ()); Lg (global ());
    Sg (global ()); Lla (local ()); Lga (global ()); Llx (local ()); Slx (local ());
    Lgx (global ()); Sgx (global ()); Rload; Rstore; Ldfld (int 256); Stfld (int 256);
    Newrec (1 + int 255); Freerec; Dup; Drop; Swap; Over; Add; Sub; Mul; Div; Mod; Neg;
    Band; Bor; Bxor; Bnot; Lt; Le; Eq; Ne; Ge; Gt; J (disp ()); Jz (disp ());
    Jnz (disp ()); Efc (int 256); Lfc (int 256); Dfc (int 0x1000000);
    Sdfc (int 0x100000 - 0x80000); Xf; Ret; Lrc; Fork (int 4); Yield; Stopproc; Out;
    Nop; Brk; Halt;
  ]

(* Run [op] once on a fresh machine holding [locals], [globals] and
   [stack], check it against its effects, and return its references
   paired with the data-trace entries they left. *)
let check_effect ~engine op ~locals ~globals ~stack =
  let open Fpc_core in
  let image = Fpc_mesa.Image.clone effect_image in
  let st = Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main" ~args:[] () in
  Array.iteri (State.write_local st) locals;
  Array.iteri (fun i v -> Fpc_machine.Memory.poke st.mem (State.global_addr st i) v) globals;
  Array.iter (Eval_stack.push st.stack) stack;
  let d0 = Array.length stack in
  let e = Opcode.effects op in
  let m = st.metrics and cost = st.cost in
  let l0 = m.local_refs and g0 = m.global_refs and i0 = m.indirect_refs in
  let r0 = Fpc_machine.Cost.mem_reads cost and w0 = Fpc_machine.Cost.mem_writes cost in
  let b0 = Fpc_machine.Cost.bank_refs cost in
  let trace = Option.get st.data_trace in
  Queue.clear trace;
  let pc = st.pc_abs in
  st.pc_abs <- pc + Opcode.encoded_length op;
  let result =
    match Fpc_interp.Interp.exec st ~instr_pc:pc op with
    | () -> `Ok
    | exception Transfer.Machine_trap _ -> `Trap
    | exception Eval_stack.Underflow -> `Underflow
    | exception Eval_stack.Overflow -> `Overflow
    | exception Invalid_argument _ -> `Storage
    | exception x -> `Raised (Printexc.to_string x)
  in
  let fail fmt =
    QCheck.Test.fail_reportf
      ("%s, banks %s, stack depth %d: " ^^ fmt)
      (Opcode.to_string op)
      (if Option.is_some st.banks then "on" else "off")
      d0
  in
  (match result with `Raised x -> fail "raised %s" x | _ -> ());
  if result = `Trap && not e.may_trap then fail "machine trap, but may_trap is false";
  let underflow = d0 < e.pops in
  if underflow <> (result = `Underflow) then
    fail "stack underflow %b, but pops is %d" (result = `Underflow) e.pops;
  let d1 = d0 - e.pops + e.pushes in
  (* a call or transfer hands the stack beyond its operands across *)
  (match (e.cls, result) with
  | (Call | Transfer), _ -> ()
  | _, `Ok when Eval_stack.depth st.stack <> d1 ->
    fail "depth %d -> %d, but pops %d pushes %d" d0 (Eval_stack.depth st.stack) e.pops
      e.pushes
  | _, `Overflow when d1 <= Eval_stack.capacity st.stack ->
    fail "stack overflow, but pops %d pushes %d" e.pops e.pushes
  | _ -> ());
  (* the references the instruction made: none once the stack underflowed *)
  let refs =
    if underflow then []
    else List.filter (fun r -> r.Opcode.access <> Opcode.Address) e.refs
  in
  let count p = List.length (List.filter p refs) in
  List.iter
    (fun (name, g, before, after) ->
      let n = count (fun r -> r.Opcode.region = g) in
      if after - before <> n then
        fail "%s_refs +%d, but the table names %d" name (after - before) n)
    [
      ("local", Opcode.Local, l0, m.local_refs);
      ("global", Opcode.Global, g0, m.global_refs);
      ("indirect", Opcode.Indirect, i0, m.indirect_refs);
    ];
  let stream = List.of_seq (Queue.to_seq trace) in
  if List.length stream <> List.length refs then
    fail "%d data-trace entries, but the table names %d" (List.length stream)
      (List.length refs);
  List.iter2
    (fun (r : Opcode.sref) (addr, write) ->
      if write <> (r.access = Write) then fail "data-trace direction differs";
      match (r.region, r.offset) with
      | Local, Static n when addr <> st.lf + n -> fail "local address %d, not lf + %d" addr n
      | Global, Static n when addr <> State.global_addr st n ->
        fail "global address %d, not global %d" addr n
      | _ -> ())
    refs stream;
  (match e.cls with
  | Pure | Data | Jump | Stop ->
    (* allocator, call and transfer traffic is outside the table *)
    let reads = Fpc_machine.Cost.mem_reads cost - r0
    and writes = Fpc_machine.Cost.mem_writes cost - w0
    and banked = Fpc_machine.Cost.bank_refs cost - b0 in
    let r = count (fun r -> r.access = Read) and w = count (fun r -> r.access = Write) in
    let ok =
      match st.banks with
      | None -> reads = r && writes = w && banked = 0
      | Some _ -> reads <= r && writes <= w && reads + writes + banked = r + w
    in
    if not ok then
      fail "storage %d reads %d writes %d bank refs, but the table names %d reads %d writes"
        reads writes banked r w
  | Alloc | Call | Transfer -> ());
  (match st.banks with
  | Some banks when not underflow ->
    let address = List.exists (fun r -> r.Opcode.access = Address) e.refs in
    let flagged = Fpc_regbank.Bank_file.is_flagged banks ~lf:st.lf in
    if flagged <> address then
      fail "frame flagged %b, but address-only entry %b" flagged address
  | _ -> ());
  List.combine refs stream

(* Each instruction runs twice, the second time with every stack word one
   higher: a static reference names the same word both times, a dynamic
   one moves with the stack. *)
let prop_effect_table =
  QCheck.Test.make ~count:100 ~name:"Opcode.effects matches Interp.exec" QCheck.int
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let int n = Random.State.int rs n in
      let capacity = Fpc_core.Eval_stack.(capacity (create ())) in
      List.iter
        (fun engine ->
          let engine = { engine with Fpc_core.Engine.collect_data_trace = true } in
          List.iter
            (fun op ->
              let locals = Array.init 8 (fun _ -> int 0x10000) in
              let globals = Array.init 16 (fun _ -> int 0x10000) in
              let stack =
                Array.init (int (capacity + 1)) (fun _ ->
                    if int 2 = 0 then int 32 else int 0x10000)
              in
              let run stack = check_effect ~engine op ~locals ~globals ~stack in
              let first = run stack in
              let moved = run (Array.map (fun v -> (v + 1) land 0xFFFF) stack) in
              List.iter2
                (fun ((r : Opcode.sref), (a, _)) (_, (a', _)) ->
                  if (a <> a') <> (r.offset = Dynamic) then
                    QCheck.Test.fail_reportf "%s: a %s reference at %d, then %d"
                      (Opcode.to_string op)
                      (if r.offset = Dynamic then "dynamic" else "static")
                      a a')
                first moved)
            (every_op rs))
        [ Fpc_core.Engine.i2; Fpc_core.Engine.i4 () ];
      true)

let () =
  ignore fib_body;
  Alcotest.run "interp"
    [
      ( "fib",
        [
          Alcotest.test_case "I1" `Quick (test_fib_engine Fpc_core.Engine.i1 ~args_in_place:false);
          Alcotest.test_case "I2" `Quick (test_fib_engine Fpc_core.Engine.i2 ~args_in_place:false);
          Alcotest.test_case "I3" `Quick
            (test_fib_engine (Fpc_core.Engine.i3 ()) ~args_in_place:false);
          Alcotest.test_case "I4" `Quick
            (test_fib_engine (Fpc_core.Engine.i4 ()) ~args_in_place:true);
          Alcotest.test_case "engines agree" `Quick test_fib_engines_agree;
          Alcotest.test_case "cost ordering I4<I3<I2<I1" `Quick test_fib_costs_ordered;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "16-bit wrap" `Quick test_arithmetic_wraps;
          Alcotest.test_case "signed comparison" `Quick test_signed_comparison;
          Alcotest.test_case "signed division" `Quick test_division_signed;
          Alcotest.test_case "indexed locals" `Quick test_indexed_locals;
          Alcotest.test_case "boot args" `Quick test_boot_args;
          Alcotest.test_case "every two-operand operator, both tiers" `Quick
            test_binop_values;
        ] );
      ( "traps",
        [
          Alcotest.test_case "div by zero" `Quick test_div_zero_trap;
          Alcotest.test_case "BRK" `Quick test_break_trap;
          Alcotest.test_case "eval overflow" `Quick test_eval_overflow_trap;
          Alcotest.test_case "handler resumes" `Quick test_trap_handler_resumes;
          Alcotest.test_case "handler sees code" `Quick test_trap_handler_sees_code;
          Alcotest.test_case "illegal instruction" `Quick test_illegal_instruction_fatal;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "runaway recursion" `Quick test_runaway_recursion_stops;
        ] );
      ("effect table", [ QCheck_alcotest.to_alcotest prop_effect_table ]);
      ( "model",
        [
          Alcotest.test_case "long argument record" `Quick test_long_argument_record;
          Alcotest.test_case "interface record call" `Quick test_interface_record_call;
          Alcotest.test_case "Interface API + rebind" `Quick test_interface_module_api;
          Alcotest.test_case "LV rebound to frame (F3)" `Quick test_lv_rebind_to_frame_full;
          Alcotest.test_case "retained frames" `Quick test_retained_frame_across_engines;
        ] );
    ]
