type label = int

type jump_ref = { at : int; kind : [ `J | `Jz | `Jnz ]; target : label }

type t = {
  buf : Buffer.t;
  mutable labels : (label * int option) list;
  mutable next_label : int;
  mutable jumps : jump_ref list;
}

let create () = { buf = Buffer.create 64; labels = []; next_label = 0; jumps = [] }
let here t = Buffer.length t.buf
let emit t op = Opcode.encode op t.buf

let emit_placeholder t op =
  let pos = here t in
  emit t op;
  pos

(* EXTERNALCALL in the linker's D2 fallback shape: the wide (2-byte) EFC
   followed by two NOP pads, so the site occupies the 4 bytes a
   DIRECTCALL needs.  A link-time analysis that proves the site
   single-target can patch a [Dfc] (or [Sdfc] + NOP) over it in place;
   an unproven site simply executes the pads on return. *)
let emit_efc_padded t lv =
  if lv < 0 || lv > 0xFF then invalid_arg "Builder.emit_efc_padded: LV index";
  let pos = here t in
  Buffer.add_char t.buf '\x90';
  Buffer.add_char t.buf (Char.chr lv);
  Buffer.add_char t.buf '\000';
  Buffer.add_char t.buf '\000';
  pos

let new_label t =
  let l = t.next_label in
  t.next_label <- l + 1;
  t.labels <- (l, None) :: t.labels;
  l

let place t l =
  match List.assoc_opt l t.labels with
  | None -> invalid_arg "Builder.place: unknown label"
  | Some (Some _) -> invalid_arg "Builder.place: label placed twice"
  | Some None ->
    t.labels <- (l, Some (here t)) :: List.remove_assoc l t.labels

(* Wide jump encodings are opcode + 16-bit displacement; we emit with a
   zero displacement and patch in [to_bytes].  A displacement of zero would
   re-encode as the short form, so we force the wide opcode directly. *)
let wide_opcode = function `J -> 0x71 | `Jz -> 0x73 | `Jnz -> 0x75

let jump t kind target =
  let at = here t in
  Buffer.add_char t.buf (Char.chr (wide_opcode kind));
  Buffer.add_char t.buf '\000';
  Buffer.add_char t.buf '\000';
  t.jumps <- { at; kind; target } :: t.jumps

let to_bytes t =
  let code = Buffer.to_bytes t.buf in
  let resolve l =
    match List.assoc_opt l t.labels with
    | Some (Some off) -> off
    | Some None | None -> invalid_arg "Builder.to_bytes: unplaced label"
  in
  let patch { at; kind = _; target } =
    let d = resolve target - at in
    let u = Fpc_util.Bits.unsigned_of_signed ~width:16 d in
    Bytes.set code (at + 1) (Char.chr (u lsr 8));
    Bytes.set code (at + 2) (Char.chr (u land 0xFF))
  in
  List.iter patch t.jumps;
  code

let check_opcode bytes ~pos ~expected ~what =
  let b = Char.code (Bytes.get bytes pos) in
  if not (expected b) then
    invalid_arg (Printf.sprintf "Builder.%s: no such instruction at %d (byte 0x%02X)" what pos b)

(* Overwrite the bytes at [pos] with [ops], through the encoder. *)
let overwrite bytes ~pos ops =
  let buf = Buffer.create 4 in
  List.iter (fun op -> Opcode.encode op buf) ops;
  Bytes.blit_string (Buffer.contents buf) 0 bytes pos (Buffer.length buf)

let patch_dfc bytes ~pos ~target =
  check_opcode bytes ~pos ~expected:(fun b -> b = 0x92) ~what:"patch_dfc";
  overwrite bytes ~pos [ Opcode.Dfc target ]

let rewrite_dfc_to_sdfc bytes ~pos ~displacement =
  check_opcode bytes ~pos ~expected:(fun b -> b = 0x92) ~what:"rewrite_dfc_to_sdfc";
  overwrite bytes ~pos [ Opcode.Sdfc displacement; Opcode.Nop ]
