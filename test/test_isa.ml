(* Tests for the instruction set: encoding, decoding, builder, disassembly. *)

open Fpc_isa

let qtest = QCheck_alcotest.to_alcotest

let encode_one op =
  let b = Buffer.create 8 in
  Opcode.encode op b;
  Buffer.to_bytes b

let decode_bytes bytes ~pc =
  Opcode.decode ~fetch:(fun i -> Char.code (Bytes.get bytes i)) ~pc

(* A generator covering every instruction form with valid operands. *)
let arbitrary_op =
  let open QCheck.Gen in
  let g_small = int_bound 255 in
  let g_word = int_bound 65535 in
  let g_s8 = int_range (-128) 127 in
  let g_s16 = int_range (-32768) 32767 in
  let g_s20 = int_range (-(1 lsl 19)) ((1 lsl 19) - 1) in
  let g =
    oneof
      [
        map (fun n -> Opcode.Li n) g_word;
        map (fun n -> Opcode.Lpd n) g_word;
        map (fun n -> Opcode.Ll n) g_small;
        map (fun n -> Opcode.Sl n) g_small;
        map (fun n -> Opcode.Lg n) g_small;
        map (fun n -> Opcode.Sg n) g_small;
        map (fun n -> Opcode.Lla n) g_small;
        map (fun n -> Opcode.Lga n) g_small;
        map (fun n -> Opcode.Llx n) g_small;
        map (fun n -> Opcode.Slx n) g_small;
        map (fun n -> Opcode.Lgx n) g_small;
        map (fun n -> Opcode.Sgx n) g_small;
        map (fun n -> Opcode.Ldfld n) g_small;
        map (fun n -> Opcode.Stfld n) g_small;
        map (fun n -> Opcode.Newrec (1 + (n mod 255))) g_small;
        map (fun d -> Opcode.J d) g_s16;
        map (fun d -> Opcode.Jz d) g_s8;
        map (fun d -> Opcode.Jnz d) g_s16;
        map (fun n -> Opcode.Efc n) g_small;
        map (fun n -> Opcode.Lfc n) g_small;
        map (fun a -> Opcode.Dfc a) (int_bound 0xFFFFFF);
        map (fun d -> Opcode.Sdfc d) g_s20;
        map (fun n -> Opcode.Fork n) g_small;
        oneofl
          Opcode.
            [
              Rload; Rstore; Freerec; Dup; Drop; Swap; Over; Add; Sub; Mul; Div;
              Mod; Neg; Band; Bor; Bxor; Bnot; Lt; Le; Eq; Ne; Ge; Gt; Xf; Ret;
              Lrc; Yield; Stopproc; Out; Nop; Brk; Halt;
            ];
      ]
  in
  QCheck.make ~print:Opcode.to_string g

let prop_encode_decode_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"opcode: encode/decode roundtrip" arbitrary_op
    (fun op ->
      let bytes = encode_one op in
      let op', len = decode_bytes bytes ~pc:0 in
      op = op' && len = Bytes.length bytes)

let prop_encoded_length_agrees =
  QCheck.Test.make ~count:2000 ~name:"opcode: encoded_length = real length"
    arbitrary_op (fun op -> Opcode.encoded_length op = Bytes.length (encode_one op))

let prop_stream_roundtrip =
  QCheck.Test.make ~count:200 ~name:"opcode: instruction stream roundtrip"
    QCheck.(list_of_size (Gen.int_range 1 40) arbitrary_op)
    (fun ops ->
      let buf = Buffer.create 64 in
      List.iter (fun op -> Opcode.encode op buf) ops;
      let bytes = Buffer.to_bytes buf in
      let decoded =
        Disasm.decode_range
          ~fetch:(fun i -> Char.code (Bytes.get bytes i))
          ~start:0 ~stop:(Bytes.length bytes)
      in
      List.length decoded = List.length ops
      && List.for_all2 (fun (_, a) b -> a = b) decoded ops)

let test_key_encodings () =
  (* The encodings the paper's space arithmetic depends on. *)
  Alcotest.(check int) "EFC 0 is one byte" 1 (Opcode.encoded_length (Opcode.Efc 0));
  Alcotest.(check int) "EFC 15 is one byte" 1 (Opcode.encoded_length (Opcode.Efc 15));
  Alcotest.(check int) "EFC 16 is two bytes" 2 (Opcode.encoded_length (Opcode.Efc 16));
  Alcotest.(check int) "LFC is two bytes" 2 (Opcode.encoded_length (Opcode.Lfc 3));
  Alcotest.(check int) "DFC is four bytes" 4 (Opcode.encoded_length (Opcode.Dfc 0xABCDEF));
  Alcotest.(check int) "SDFC is three bytes" 3 (Opcode.encoded_length (Opcode.Sdfc (-100000)));
  Alcotest.(check int) "RET is one byte" 1 (Opcode.encoded_length Opcode.Ret);
  Alcotest.(check int) "LI 10 is one byte" 1 (Opcode.encoded_length (Opcode.Li 10));
  Alcotest.(check int) "LI 11 is two bytes" 2 (Opcode.encoded_length (Opcode.Li 11));
  Alcotest.(check int) "LI 256 is three bytes" 3 (Opcode.encoded_length (Opcode.Li 256))

let test_operand_range_checks () =
  Alcotest.check_raises "EFC 256"
    (Invalid_argument "Opcode.encode: EFC operand 256 out of [0,255]") (fun () ->
      ignore (encode_one (Opcode.Efc 256)));
  Alcotest.check_raises "SDFC out of range"
    (Invalid_argument
       (Printf.sprintf "Opcode.encode: SDFC operand %d out of [%d,%d]" (1 lsl 19)
          (-(1 lsl 19))
          ((1 lsl 19) - 1)))
    (fun () -> ignore (encode_one (Opcode.Sdfc (1 lsl 19))))

let test_illegal_opcode () =
  let bytes = Bytes.of_string "\xFF" in
  Alcotest.(check bool) "raises" true
    (match decode_bytes bytes ~pc:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The XFER-class instructions by their effect: calls and transfers move
   control to another context; ADD and J do not. *)
let test_transfer_class () =
  let xfer op =
    match (Opcode.effects op).cls with
    | Opcode.Call | Opcode.Transfer -> true
    | Opcode.Pure | Opcode.Data | Opcode.Alloc | Opcode.Jump | Opcode.Stop -> false
  in
  Alcotest.(check bool) "EFC" true (xfer (Opcode.Efc 0));
  Alcotest.(check bool) "RET" true (xfer Opcode.Ret);
  Alcotest.(check bool) "XF" true (xfer Opcode.Xf);
  Alcotest.(check bool) "ADD" false (xfer Opcode.Add);
  Alcotest.(check bool) "J" false (xfer (Opcode.J 4))

(* ---- Builder ---- *)

let test_builder_forward_jump () =
  let b = Builder.create () in
  let l = Builder.new_label b in
  Builder.emit b (Opcode.Li 1);
  Builder.jump b `Jz l;
  Builder.emit b (Opcode.Li 2);
  Builder.place b l;
  Builder.emit b Opcode.Halt;
  let code = Builder.to_bytes b in
  (* Layout: LI1(1) JZW(3) LI2(1) HALT(1); the jump targets offset 5 from
     its own offset 1 => displacement +4. *)
  let op, _ = decode_bytes code ~pc:1 in
  Alcotest.(check string) "resolved" "JZ +4" (Opcode.to_string op)

let test_builder_backward_jump () =
  let b = Builder.create () in
  let l = Builder.new_label b in
  Builder.place b l;
  Builder.emit b (Opcode.Li 1);
  Builder.jump b `J l;
  let code = Builder.to_bytes b in
  let op, _ = decode_bytes code ~pc:1 in
  Alcotest.(check string) "backward" "J -1" (Opcode.to_string op)

let test_builder_unplaced_label () =
  let b = Builder.create () in
  let l = Builder.new_label b in
  Builder.jump b `J l;
  Alcotest.check_raises "unplaced" (Invalid_argument "Builder.to_bytes: unplaced label")
    (fun () -> ignore (Builder.to_bytes b))

let test_builder_double_place () =
  let b = Builder.create () in
  let l = Builder.new_label b in
  Builder.place b l;
  Alcotest.check_raises "twice" (Invalid_argument "Builder.place: label placed twice")
    (fun () -> Builder.place b l)

let test_patch_dfc () =
  let b = Builder.create () in
  let pos = Builder.emit_placeholder b (Opcode.Dfc 0) in
  let code = Builder.to_bytes b in
  Builder.patch_dfc code ~pos ~target:0x123456;
  let op, _ = decode_bytes code ~pc:pos in
  Alcotest.(check bool) "patched" true (op = Opcode.Dfc 0x123456)

let test_rewrite_dfc_to_sdfc () =
  let b = Builder.create () in
  let pos = Builder.emit_placeholder b (Opcode.Dfc 0) in
  Builder.emit b Opcode.Halt;
  let code = Builder.to_bytes b in
  Builder.rewrite_dfc_to_sdfc code ~pos ~displacement:(-42);
  let op, len = decode_bytes code ~pc:pos in
  Alcotest.(check bool) "short form" true (op = Opcode.Sdfc (-42));
  let pad, _ = decode_bytes code ~pc:(pos + len) in
  Alcotest.(check bool) "nop pad" true (pad = Opcode.Nop);
  let halt, _ = decode_bytes code ~pc:(pos + len + 1) in
  Alcotest.(check bool) "stream continues" true (halt = Opcode.Halt)

let test_patch_wrong_site () =
  let b = Builder.create () in
  Builder.emit b Opcode.Nop;
  let code = Builder.to_bytes b in
  Alcotest.(check bool) "refuses" true
    (match Builder.patch_dfc code ~pos:0 ~target:1 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_disasm_render () =
  let b = Builder.create () in
  Builder.emit b (Opcode.Li 7);
  Builder.emit b Opcode.Out;
  Builder.emit b Opcode.Halt;
  let s = Disasm.of_bytes (Builder.to_bytes b) in
  Alcotest.(check string) "listing" "    0: LI 7\n    1: OUT\n    2: HALT" s

let () =
  Alcotest.run "isa"
    [
      ( "opcode",
        [
          qtest prop_encode_decode_roundtrip;
          qtest prop_encoded_length_agrees;
          qtest prop_stream_roundtrip;
          Alcotest.test_case "key encodings" `Quick test_key_encodings;
          Alcotest.test_case "operand ranges" `Quick test_operand_range_checks;
          Alcotest.test_case "illegal opcode" `Quick test_illegal_opcode;
          Alcotest.test_case "transfer class" `Quick test_transfer_class;
        ] );
      ( "builder",
        [
          Alcotest.test_case "forward jump" `Quick test_builder_forward_jump;
          Alcotest.test_case "backward jump" `Quick test_builder_backward_jump;
          Alcotest.test_case "unplaced label" `Quick test_builder_unplaced_label;
          Alcotest.test_case "double place" `Quick test_builder_double_place;
          Alcotest.test_case "patch DFC" `Quick test_patch_dfc;
          Alcotest.test_case "rewrite DFC->SDFC" `Quick test_rewrite_dfc_to_sdfc;
          Alcotest.test_case "patch wrong site" `Quick test_patch_wrong_site;
          Alcotest.test_case "disasm render" `Quick test_disasm_render;
        ] );
    ]
