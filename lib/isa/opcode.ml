type t =
  | Li of int
  | Lpd of int
  | Ll of int
  | Sl of int
  | Lg of int
  | Sg of int
  | Lla of int
  | Lga of int
  | Llx of int
  | Slx of int
  | Lgx of int
  | Sgx of int
  | Rload
  | Rstore
  | Ldfld of int
  | Stfld of int
  | Newrec of int
  | Freerec
  | Dup
  | Drop
  | Swap
  | Over
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Neg
  | Band
  | Bor
  | Bxor
  | Bnot
  | Lt
  | Le
  | Eq
  | Ne
  | Ge
  | Gt
  | J of int
  | Jz of int
  | Jnz of int
  | Efc of int
  | Lfc of int
  | Dfc of int
  | Sdfc of int
  | Xf
  | Ret
  | Lrc
  | Fork of int
  | Yield
  | Stopproc
  | Out
  | Nop
  | Brk
  | Halt

let max_short_efc = 15
let sdfc_range = (-(1 lsl 19), (1 lsl 19) - 1)

let fits_signed8 d = d >= -128 && d <= 127

let encoded_length = function
  | Nop | Halt | Brk | Out | Ret | Xf | Lrc | Yield | Stopproc | Dup | Drop
  | Swap | Over | Rload | Rstore | Freerec | Add | Sub | Mul | Div | Mod | Neg
  | Band | Bor | Bxor | Bnot | Lt | Le | Eq | Ne | Ge | Gt ->
    1
  | Li n -> if n >= 0 && n <= 10 then 1 else if n <= 255 then 2 else 3
  | Lpd _ -> 3
  | Ll n | Sl n | Lg n | Sg n -> if n <= 7 then 1 else 2
  | Lla _ | Lga _ | Llx _ | Slx _ | Lgx _ | Sgx _ | Ldfld _ | Stfld _ | Newrec _
  | Fork _ ->
    2
  | J d | Jz d | Jnz d -> if fits_signed8 d then 2 else 3
  | Efc n -> if n <= max_short_efc then 1 else 2
  | Lfc _ -> 2
  | Dfc _ -> 4
  | Sdfc _ -> 3

let check ~what ~lo ~hi n =
  if n < lo || n > hi then
    invalid_arg (Printf.sprintf "Opcode.encode: %s operand %d out of [%d,%d]" what n lo hi)

let byte buf b = Buffer.add_char buf (Char.chr (b land 0xFF))

let word16 buf w =
  byte buf (w lsr 8);
  byte buf w

let arith_base = 0x10

let arith_code = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Mod -> 4 | Neg -> 5
  | Band -> 6 | Bor -> 7 | Bxor -> 8 | Bnot -> 9 | Lt -> 10 | Le -> 11
  | Eq -> 12 | Ne -> 13 | Ge -> 14 | Gt -> 15
  | _ -> invalid_arg "arith_code"

let encode op buf =
  match op with
  | Nop -> byte buf 0x00
  | Halt -> byte buf 0x01
  | Brk -> byte buf 0x02
  | Out -> byte buf 0x03
  | Ret -> byte buf 0x04
  | Xf -> byte buf 0x05
  | Lrc -> byte buf 0x06
  | Yield -> byte buf 0x07
  | Stopproc -> byte buf 0x08
  | Fork n ->
    check ~what:"FORK" ~lo:0 ~hi:255 n;
    byte buf 0x09;
    byte buf n
  | Dup -> byte buf 0x0A
  | Drop -> byte buf 0x0B
  | Swap -> byte buf 0x0C
  | Over -> byte buf 0x0D
  | Rload -> byte buf 0x0E
  | Rstore -> byte buf 0x0F
  | (Add | Sub | Mul | Div | Mod | Neg | Band | Bor | Bxor | Bnot | Lt | Le
    | Eq | Ne | Ge | Gt) as a ->
    byte buf (arith_base + arith_code a)
  | Li n ->
    check ~what:"LI" ~lo:0 ~hi:0xFFFF n;
    if n <= 10 then byte buf (0x20 + n)
    else if n <= 255 then begin byte buf 0x2B; byte buf n end
    else begin byte buf 0x2C; word16 buf n end
  | Lpd w ->
    check ~what:"LPD" ~lo:0 ~hi:0xFFFF w;
    byte buf 0x2D;
    word16 buf w
  | Newrec n ->
    check ~what:"NEWREC" ~lo:1 ~hi:255 n;
    byte buf 0x2E;
    byte buf n
  | Freerec -> byte buf 0x2F
  | Ll n ->
    check ~what:"LL" ~lo:0 ~hi:255 n;
    if n <= 7 then byte buf (0x30 + n) else begin byte buf 0x38; byte buf n end
  | Sl n ->
    check ~what:"SL" ~lo:0 ~hi:255 n;
    if n <= 7 then byte buf (0x40 + n) else begin byte buf 0x48; byte buf n end
  | Lg n ->
    check ~what:"LG" ~lo:0 ~hi:255 n;
    if n <= 7 then byte buf (0x50 + n) else begin byte buf 0x58; byte buf n end
  | Sg n ->
    check ~what:"SG" ~lo:0 ~hi:255 n;
    if n <= 7 then byte buf (0x60 + n) else begin byte buf 0x68; byte buf n end
  | Lla n ->
    check ~what:"LLA" ~lo:0 ~hi:255 n;
    byte buf 0x69;
    byte buf n
  | Lga n ->
    check ~what:"LGA" ~lo:0 ~hi:255 n;
    byte buf 0x6A;
    byte buf n
  | Llx n ->
    check ~what:"LLX" ~lo:0 ~hi:255 n;
    byte buf 0x76;
    byte buf n
  | Slx n ->
    check ~what:"SLX" ~lo:0 ~hi:255 n;
    byte buf 0x77;
    byte buf n
  | Lgx n ->
    check ~what:"LGX" ~lo:0 ~hi:255 n;
    byte buf 0x78;
    byte buf n
  | Sgx n ->
    check ~what:"SGX" ~lo:0 ~hi:255 n;
    byte buf 0x79;
    byte buf n
  | Ldfld n ->
    check ~what:"LDFLD" ~lo:0 ~hi:255 n;
    byte buf 0x6B;
    byte buf n
  | Stfld n ->
    check ~what:"STFLD" ~lo:0 ~hi:255 n;
    byte buf 0x6C;
    byte buf n
  | J d ->
    if fits_signed8 d then begin
      byte buf 0x70;
      byte buf (Fpc_util.Bits.unsigned_of_signed ~width:8 d)
    end
    else begin
      check ~what:"JW" ~lo:(-32768) ~hi:32767 d;
      byte buf 0x71;
      word16 buf (Fpc_util.Bits.unsigned_of_signed ~width:16 d)
    end
  | Jz d ->
    if fits_signed8 d then begin
      byte buf 0x72;
      byte buf (Fpc_util.Bits.unsigned_of_signed ~width:8 d)
    end
    else begin
      check ~what:"JZW" ~lo:(-32768) ~hi:32767 d;
      byte buf 0x73;
      word16 buf (Fpc_util.Bits.unsigned_of_signed ~width:16 d)
    end
  | Jnz d ->
    if fits_signed8 d then begin
      byte buf 0x74;
      byte buf (Fpc_util.Bits.unsigned_of_signed ~width:8 d)
    end
    else begin
      check ~what:"JNZW" ~lo:(-32768) ~hi:32767 d;
      byte buf 0x75;
      word16 buf (Fpc_util.Bits.unsigned_of_signed ~width:16 d)
    end
  | Efc n ->
    check ~what:"EFC" ~lo:0 ~hi:255 n;
    if n <= max_short_efc then byte buf (0x80 + n)
    else begin byte buf 0x90; byte buf n end
  | Lfc n ->
    check ~what:"LFC" ~lo:0 ~hi:255 n;
    byte buf 0x91;
    byte buf n
  | Dfc a ->
    check ~what:"DFC" ~lo:0 ~hi:0xFFFFFF a;
    byte buf 0x92;
    byte buf (a lsr 16);
    byte buf (a lsr 8);
    byte buf a
  | Sdfc d ->
    let lo, hi = sdfc_range in
    check ~what:"SDFC" ~lo ~hi d;
    let u = Fpc_util.Bits.unsigned_of_signed ~width:20 d in
    byte buf (0xA0 lor (u lsr 16));
    byte buf (u lsr 8);
    byte buf u

(* The ALU opcodes 0x10..0x1F, in encoding order. *)
let alu_ops =
  [| Add; Sub; Mul; Div; Mod; Neg; Band; Bor; Bxor; Bnot; Lt; Le; Eq; Ne; Ge; Gt |]

(* Operand readers: top-level, so a decode allocates no closure. *)
let w16 fetch pc = (fetch (pc + 1) lsl 8) lor fetch (pc + 2)
let s8 fetch pc = Fpc_util.Bits.signed_of_unsigned ~width:8 (fetch (pc + 1))
let s16 fetch pc = Fpc_util.Bits.signed_of_unsigned ~width:16 (w16 fetch pc)

let decode ~fetch ~pc =
  match fetch pc with
  | 0x00 -> (Nop, 1)
  | 0x01 -> (Halt, 1)
  | 0x02 -> (Brk, 1)
  | 0x03 -> (Out, 1)
  | 0x04 -> (Ret, 1)
  | 0x05 -> (Xf, 1)
  | 0x06 -> (Lrc, 1)
  | 0x07 -> (Yield, 1)
  | 0x08 -> (Stopproc, 1)
  | 0x09 -> (Fork (fetch (pc + 1)), 2)
  | 0x0A -> (Dup, 1)
  | 0x0B -> (Drop, 1)
  | 0x0C -> (Swap, 1)
  | 0x0D -> (Over, 1)
  | 0x0E -> (Rload, 1)
  | 0x0F -> (Rstore, 1)
  | b when b >= 0x10 && b <= 0x1F -> (alu_ops.(b - 0x10), 1)
  | b when b >= 0x20 && b <= 0x2A -> (Li (b - 0x20), 1)
  | 0x2B -> (Li (fetch (pc + 1)), 2)
  | 0x2C -> (Li (w16 fetch pc), 3)
  | 0x2D -> (Lpd (w16 fetch pc), 3)
  | 0x2E -> (Newrec (fetch (pc + 1)), 2)
  | 0x2F -> (Freerec, 1)
  | b when b >= 0x30 && b <= 0x37 -> (Ll (b - 0x30), 1)
  | 0x38 -> (Ll (fetch (pc + 1)), 2)
  | b when b >= 0x40 && b <= 0x47 -> (Sl (b - 0x40), 1)
  | 0x48 -> (Sl (fetch (pc + 1)), 2)
  | b when b >= 0x50 && b <= 0x57 -> (Lg (b - 0x50), 1)
  | 0x58 -> (Lg (fetch (pc + 1)), 2)
  | b when b >= 0x60 && b <= 0x67 -> (Sg (b - 0x60), 1)
  | 0x68 -> (Sg (fetch (pc + 1)), 2)
  | 0x69 -> (Lla (fetch (pc + 1)), 2)
  | 0x6A -> (Lga (fetch (pc + 1)), 2)
  | 0x6B -> (Ldfld (fetch (pc + 1)), 2)
  | 0x6C -> (Stfld (fetch (pc + 1)), 2)
  | 0x70 -> (J (s8 fetch pc), 2)
  | 0x71 -> (J (s16 fetch pc), 3)
  | 0x72 -> (Jz (s8 fetch pc), 2)
  | 0x73 -> (Jz (s16 fetch pc), 3)
  | 0x74 -> (Jnz (s8 fetch pc), 2)
  | 0x75 -> (Jnz (s16 fetch pc), 3)
  | 0x76 -> (Llx (fetch (pc + 1)), 2)
  | 0x77 -> (Slx (fetch (pc + 1)), 2)
  | 0x78 -> (Lgx (fetch (pc + 1)), 2)
  | 0x79 -> (Sgx (fetch (pc + 1)), 2)
  | b when b >= 0x80 && b <= 0x8F -> (Efc (b - 0x80), 1)
  | 0x90 -> (Efc (fetch (pc + 1)), 2)
  | 0x91 -> (Lfc (fetch (pc + 1)), 2)
  | 0x92 ->
    (Dfc ((fetch (pc + 1) lsl 16) lor (fetch (pc + 2) lsl 8) lor fetch (pc + 3)), 4)
  | b when b >= 0xA0 && b <= 0xAF ->
    let u = ((b land 0xF) lsl 16) lor (fetch (pc + 1) lsl 8) lor fetch (pc + 2) in
    (Sdfc (Fpc_util.Bits.signed_of_unsigned ~width:20 u), 3)
  | b -> invalid_arg (Printf.sprintf "Opcode.decode: illegal opcode byte 0x%02X at %d" b pc)

let to_string = function
  | Li n -> Printf.sprintf "LI %d" n
  | Lpd w -> Printf.sprintf "LPD 0x%04X" w
  | Ll n -> Printf.sprintf "LL %d" n
  | Sl n -> Printf.sprintf "SL %d" n
  | Lg n -> Printf.sprintf "LG %d" n
  | Sg n -> Printf.sprintf "SG %d" n
  | Lla n -> Printf.sprintf "LLA %d" n
  | Lga n -> Printf.sprintf "LGA %d" n
  | Llx n -> Printf.sprintf "LLX %d" n
  | Slx n -> Printf.sprintf "SLX %d" n
  | Lgx n -> Printf.sprintf "LGX %d" n
  | Sgx n -> Printf.sprintf "SGX %d" n
  | Rload -> "RLOAD"
  | Rstore -> "RSTORE"
  | Ldfld n -> Printf.sprintf "LDFLD %d" n
  | Stfld n -> Printf.sprintf "STFLD %d" n
  | Newrec n -> Printf.sprintf "NEWREC %d" n
  | Freerec -> "FREEREC"
  | Dup -> "DUP"
  | Drop -> "DROP"
  | Swap -> "SWAP"
  | Over -> "OVER"
  | Add -> "ADD"
  | Sub -> "SUB"
  | Mul -> "MUL"
  | Div -> "DIV"
  | Mod -> "MOD"
  | Neg -> "NEG"
  | Band -> "AND"
  | Bor -> "OR"
  | Bxor -> "XOR"
  | Bnot -> "NOT"
  | Lt -> "LT"
  | Le -> "LE"
  | Eq -> "EQ"
  | Ne -> "NE"
  | Ge -> "GE"
  | Gt -> "GT"
  | J d -> Printf.sprintf "J %+d" d
  | Jz d -> Printf.sprintf "JZ %+d" d
  | Jnz d -> Printf.sprintf "JNZ %+d" d
  | Efc n -> Printf.sprintf "EFC %d" n
  | Lfc n -> Printf.sprintf "LFC %d" n
  | Dfc a -> Printf.sprintf "DFC 0x%06X" a
  | Sdfc d -> Printf.sprintf "SDFC %+d" d
  | Xf -> "XF"
  | Ret -> "RET"
  | Lrc -> "LRC"
  | Fork n -> Printf.sprintf "FORK %d" n
  | Yield -> "YIELD"
  | Stopproc -> "STOPPROC"
  | Out -> "OUT"
  | Nop -> "NOP"
  | Brk -> "BRK"
  | Halt -> "HALT"

(* ------------------------------------------------------------------ *)
(* Effects: what {!Fpc_interp.Interp.exec} does with each instruction.
   Every decodable instruction's effects are built once, here — one
   constant per operand-free (or operand-blind) form, one table entry
   per byte operand of a static variable reference — so the translate-
   and link-time callers allocate only for FORK's count. *)

type cls = Pure | Data | Alloc | Jump | Call | Transfer | Stop
type region = Local | Global | Indirect
type offset = Static of int | Dynamic
type access = Read | Write | Address
type sref = { region : region; offset : offset; access : access }

type effects = {
  pops : int;
  pushes : int;
  cls : cls;
  refs : sref list;
  may_trap : bool;
}

let fx ?(trap = false) cls pops pushes = { pops; pushes; cls; refs = []; may_trap = trap }

let var region offset access pops pushes =
  { pops; pushes; cls = Data; refs = [ { region; offset; access } ]; may_trap = false }

(* A static reference's effects, by operand: built once for the byte
   operands an encoded instruction can carry. *)
let static region access pops pushes =
  let table = Array.init 256 (fun n -> var region (Static n) access pops pushes) in
  fun n -> if n >= 0 && n < 256 then table.(n) else var region (Static n) access pops pushes

let ll = static Local Read 0 1 and sl = static Local Write 1 0 and lla = static Local Address 0 1
let lg = static Global Read 0 1 and sg = static Global Write 1 0
let push1 = fx Pure 0 1 and pop1 = fx Pure 1 0 and unary = fx Pure 1 1
let binary = fx Pure 2 1 and divide = fx ~trap:true Pure 2 1
let nop = fx Pure 0 0 and dup = fx Pure 1 2 and swap = fx Pure 2 2 and over = fx Pure 2 3
let llx = var Local Dynamic Read 1 1 and slx = var Local Dynamic Write 2 0
let lgx = var Global Dynamic Read 1 1 and sgx = var Global Dynamic Write 2 0
let rload = var Indirect Dynamic Read 1 1 and rstore = var Indirect Dynamic Write 2 0
let stfld = var Indirect Dynamic Write 2 1
let newrec = fx ~trap:true Alloc 0 1 and freerec = fx Alloc 1 0
let goto = fx Jump 0 0 and branch = fx Jump 1 0 and call = fx ~trap:true Call 0 0
let xf = fx ~trap:true Transfer 1 0 and ret = fx ~trap:true Transfer 0 0
let switch = fx Transfer 0 0 and brk = fx ~trap:true Stop 0 0 and halt = fx Stop 0 0

let effects = function
  | Li _ | Lpd _ | Lga _ | Lrc -> push1
  | Ll n -> ll n | Sl n -> sl n | Lg n -> lg n | Sg n -> sg n | Lla n -> lla n
  | Llx _ -> llx | Slx _ -> slx | Lgx _ -> lgx | Sgx _ -> sgx
  | Rload | Ldfld _ -> rload | Rstore -> rstore | Stfld _ -> stfld
  | Newrec _ -> newrec | Freerec -> freerec
  | Dup -> dup | Drop | Out -> pop1 | Swap -> swap | Over -> over
  | Add | Sub | Mul | Band | Bor | Bxor | Lt | Le | Eq | Ne | Ge | Gt -> binary
  | Div | Mod -> divide | Neg | Bnot -> unary | Nop -> nop
  | J _ -> goto | Jz _ | Jnz _ -> branch
  | Efc _ | Lfc _ | Dfc _ | Sdfc _ -> call
  | Xf -> xf | Ret -> ret | Fork n -> fx ~trap:true Transfer (n + 1) 0
  | Yield | Stopproc -> switch | Brk -> brk | Halt -> halt
