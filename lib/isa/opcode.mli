(** The byte-coded instruction set of the simulated Mesa-style processor.

    §5 of the paper: instructions are one, two or three bytes; the encoding
    is stack-based and heavily optimised for local-variable references, with
    one-byte opcodes for the statically most frequent operations.  Calls:

    - [Efc n] — EXTERNALCALL through link-vector entry [n].  LV indices
      0–15 encode in a single byte, 16–255 in two ("a number of one-byte
      opcodes, so that the statically most frequently called procedures in a
      module can be called in a single byte").
    - [Lfc n] — LOCALCALL through entry-vector entry [n]; two bytes.
    - [Dfc a] — DIRECTCALL to absolute code byte-address [a]; four bytes
      (24-bit program address, §6).
    - [Sdfc d] — SHORTDIRECTCALL, PC-relative signed 20-bit displacement in
      three bytes via 16 opcodes (§6 D1).
    - [Xf] — the raw XFER primitive: pops a context word, transfers to it.
    - [Ret] — RETURN: frees the frame and XFERs to the returnLink.

    Stack conventions: binary operators pop [b] then [a] and push [a op b].
    [Stfld i] pops a value and stores it at [mem(top + i)] leaving the
    address on the stack (so records can be filled field by field);
    [Ldfld i] pops an address and pushes [mem(addr + i)] — this is the
    READFIELD of §4's interface calls. *)

type t =
  (* literals *)
  | Li of int  (** push a 16-bit literal *)
  | Lpd of int  (** push a packed context/descriptor word literal *)
  (* locals / globals; indices are in words from the variable base *)
  | Ll of int  (** push local[n] *)
  | Sl of int  (** pop into local[n] *)
  | Lg of int  (** push global[n] *)
  | Sg of int  (** pop into global[n] *)
  | Lla of int  (** push the storage address of local[n] (§7.4 pointers) *)
  | Lga of int  (** push the storage address of global[n] *)
  | Llx of int  (** pop index i, push local[n+i] — indexed local (arrays) *)
  | Slx of int  (** pop value, pop index i, local[n+i] := value *)
  | Lgx of int  (** pop index i, push global[n+i] *)
  | Sgx of int  (** pop value, pop index i, global[n+i] := value *)
  (* indirection *)
  | Rload  (** pop addr, push mem[addr] *)
  | Rstore  (** pop value, pop addr, mem[addr] := value *)
  | Ldfld of int  (** pop addr, push mem[addr+i] *)
  | Stfld of int  (** pop value, mem[top+i] := value, addr stays on stack *)
  | Newrec of int  (** allocate an n-word record from the frame heap, push addr *)
  | Freerec  (** pop record address, free it to the frame heap *)
  (* stack manipulation *)
  | Dup
  | Drop
  | Swap
  | Over
  (* arithmetic and comparisons (16-bit two's complement) *)
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
  (* jumps; displacement is in bytes relative to the first byte of the jump *)
  | J of int
  | Jz of int  (** jump if popped value is zero *)
  | Jnz of int
  (* transfers *)
  | Efc of int
  | Lfc of int
  | Dfc of int
  | Sdfc of int
  | Xf
  | Ret
  | Lrc  (** push the current returnContext as a context word *)
  (* processes *)
  | Fork of int  (** pop descriptor, pop n argument words, create a process *)
  | Yield
  | Stopproc
  (* miscellany *)
  | Out  (** pop a word and append it to the observable output *)
  | Nop
  | Brk  (** deliberate trap, for tests *)
  | Halt

val encoded_length : t -> int
(** Encoded size in bytes (1–4). *)

val encode : t -> Buffer.t -> unit
(** Append the encoding.  Raises [Invalid_argument] when an operand is out
    of encodable range (e.g. a local index above 255). *)

val decode : fetch:(int -> int) -> pc:int -> t * int
(** [decode ~fetch ~pc] decodes the instruction whose first byte is at byte
    offset [pc], reading bytes through [fetch]; returns the instruction and
    its length.  Raises [Invalid_argument] on an illegal opcode byte. *)

val to_string : t -> string
(** Assembly-style rendering, e.g. ["EFC 3"]. *)

(** {1 Effects}

    What each instruction does to the machine, as
    {!Fpc_interp.Interp.exec} does it: the one table that the compiled
    tier's block formation, fusion guards and static bills, and CFA's
    store scan, are derived from.  test_interp's "effect table" property
    runs every instruction through [Interp.exec] (register banks on and
    off, random stack, frame and operands) and checks every field. *)

type cls =
  | Pure  (** stack, literals, ALU, LRC, OUT, NOP: no storage *)
  | Data  (** names a variable or storage word: see [refs] *)
  | Alloc  (** NEWREC, FREEREC: the frame-heap allocator *)
  | Jump  (** J, JZ, JNZ *)
  | Call  (** EFC, LFC, DFC, SDFC *)
  | Transfer  (** XF, RET, FORK, YIELD, STOPPROC *)
  | Stop  (** HALT, BRK *)

type region = Local | Global | Indirect
(** The meter a reference ticks: [local_refs], [global_refs] or
    [indirect_refs]. *)

type offset = Static of int | Dynamic
(** [Static n]: the operand, a fixed word of the frame; [Dynamic]: from the stack. *)

type access =
  | Read
  | Write
  | Address
      (** forms the address only: no meter, storage reference or
          data-trace entry.  LLA's is one, because under register banks
          taking a local's address flags the frame (§7.4). *)

type sref = { region : region; offset : offset; access : access }

type effects = {
  pops : int;
      (** words needed and popped (DUP, OVER and STFLD count the words
          they only peek); for a call or transfer, only its operands (XF's
          destination, FORK's descriptor and arguments) — the rest of the
          stack is the record that crosses the transfer *)
  pushes : int;  (** pushed after the pops; no depth in between exceeds the result *)
  cls : cls;
  refs : sref list;  (** storage references, in execution order *)
  may_trap : bool;  (** can raise [Transfer.Machine_trap] (stack bounds aside) *)
}

val effects : t -> effects
(** For translate and link time, never per executed instruction.  It
    allocates nothing for an instruction [decode] can return (FORK aside):
    those effects are built once.  (Not [effect]: that is a keyword from
    OCaml 5.3, which fpc.opam admits.) *)

val max_short_efc : int
(** Highest LV index encodable in a one-byte EXTERNALCALL (15). *)

val sdfc_range : int * int
(** Inclusive displacement range of SHORTDIRECTCALL: (-2{^19}, 2{^19}-1) —
    "a three byte instruction can address one megabyte around the
    instruction" with 16 opcodes. *)
