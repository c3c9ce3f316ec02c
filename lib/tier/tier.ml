open Fpc_machine
open Fpc_core
module Opcode = Fpc_isa.Opcode
module Predecode = Fpc_isa.Predecode
module Image = Fpc_mesa.Image
module Descriptor = Fpc_mesa.Descriptor
module Gft = Fpc_mesa.Gft
module Bank_file = Fpc_regbank.Bank_file
module Interp = Fpc_interp.Interp

let[@inline] word v = Fpc_util.Bits.to_word v

(* A node covers the straight-line block starting at its boundary: at
   most [block_cap] instructions, ending early at a terminator (anything
   that moves control) or at undecodable bytes.  Calls do {e not} end
   collection: a fused call returns to the next instruction, so the
   caller's continuation rides the same node (see the segment chain in
   [build_node]).  Every byte boundary gets its own node (suffix blocks
   overlap), so a fuel-sliced resume or a computed transfer always lands
   on compiled code. *)
let block_cap = 32

(* A known-leaf callee of at most this many body instructions may be
   spliced into its caller's node (cross-call fusion).  Lampson reports
   procedures averaging ~20 instructions; the cap sits just above that
   so a realistic straight-line leaf (argument-store prologue included)
   still qualifies, while staying under [block_cap]. *)
let leaf_cap = 24

let stop (_ : State.t) = ()

(* One translated boundary.  Count and closure travel in one immutable
   record so lazily published slots are read with a single load: a racing
   domain sees either the sentinel or a fully initialised node, never a
   count without its code. *)
type node = { n_count : int; n_exec : State.t -> unit }

let no_node = { n_count = 0; n_exec = stop }

type t = {
  base : int;  (** first byte PC covered *)
  slots : node array;  (** per byte boundary; [no_node] = untranslated *)
  image : Image.t;  (** call sites' entry hints peek this store *)
  pd : Predecode.t;
  cbs : int array;
  proc_of : int array;  (** byte PC - base -> procedure id, or -1 *)
  ranges : (int * int) array;  (** proc id -> body [first_pc, limit_pc) *)
  translated : bool array;  (** per procedure, set under [lock] *)
  lock : Mutex.t;
  leaf_memo : (int, ((State.t -> unit) * int) option) Hashtbl.t;
      (** callee entry PC -> spliced leaf continuation and its instruction
          count (under lock): every suffix block containing a call site
          resolves the same leaf *)
  mutable n_boundaries : int;
  mutable n_fused : int;
  mutable n_translated : int;
}

(* ------------------------------------------------------------------ *)
(* Instruction classification, read off {!Opcode.effects}: the one table
   of what each instruction does, checked op by op against {!Interp.exec}.

   A terminator (class jump, call, transfer or stop) moves control or
   always traps, and so ends a block; it may still execute inside the
   node, as its final instruction.  A call is a distinguished one: when
   the callee splices, control comes straight back to the next
   instruction, so block collection continues through it.

   A pure instruction (class pure or data, no machine trap) can raise
   only stack bounds — discharged by the block guard — and a storage
   [Invalid_argument], which aborts the whole job identically in both
   tiers.  Pure instructions are the fusable ones: their accounting can
   be batched and their stack traffic collapsed.  The allocator ops and
   the trap-capable DIV and MOD are not: a catchable trap suspends the
   frame with the {e exact} PC of the next instruction, so each ends its
   node, run by {!Interp.exec} with the PC already past it.  The
   exception is a DIV or MOD right after a non-zero literal divisor,
   which cannot trap: [split_fusable] admits it into the run (spliced
   leaves take only pure ops).  Jumps and HALT end a run but need no
   transfer machinery, so they can close a fully fused fast path. *)

let is_terminator op =
  match (Opcode.effects op).cls with Jump | Call | Transfer | Stop -> true | _ -> false

let is_pure op =
  match Opcode.effects op with
  | { cls = Pure | Data; may_trap = false; _ } -> true
  | _ -> false

(* Stack guard for a fusable run: [(need, maxd)] — words that must be on
   the stack at its start, and the highest depth above that it reaches.
   An instruction pops before it pushes and its transient depth never
   exceeds its result (the table's promise), so checking the boundary
   depths once per block is a sound guard for a whole run of unchecked
   pushes and pops. *)
let guard_params ops =
  let need = ref 0 and maxd = ref 0 and d = ref 0 in
  List.iter
    (fun (_, op, _) ->
      let { Opcode.pops; pushes; _ } = Opcode.effects op in
      if pops - !d > !need then need := pops - !d;
      d := !d + pushes - pops;
      if !d > !maxd then maxd := !d)
    ops;
  (!need, !maxd)

(* ------------------------------------------------------------------ *)
(* Static accounting for a prepaid block, summed from the table's refs.

   A fusable run's storage references at {e static} offsets (LL/SL/LG/
   SG) have their whole bill — storage references, local/global ref
   counters — computable at translate time; when the block's runtime
   guard holds (no data trace, no register banks shadowing the touched
   frame, every static address in range) the bill is charged in one
   batch and the ops touch the store raw.  {e Dynamic} references
   (indexed, indirect) are not billed here: they run as {!Interp.exec},
   metering themselves access by access exactly as in the interpreter
   (which charges a reference before its bounds check).  A dynamic access
   that aborts leaves the rest of the batch counted and billed but not
   run, so it takes that share back before re-raising ({!unbill}).  An
   address-only reference (LLA) is billed nothing but needs banks
   absent. *)

type acct = {
  a_reads : int;  (** static storage reads *)
  a_writes : int;  (** static storage writes *)
  a_g_reads : int;  (** the global-frame share of [a_reads] *)
  a_g_writes : int;  (** the global-frame share of [a_writes] *)
  a_lrefs : int;
  a_grefs : int;
  a_max_l : int;  (** highest static local offset dereferenced; -1 none *)
  a_max_g : int;  (** highest static global offset dereferenced; -1 none *)
  a_no_banks : bool;
      (** block touches locals or data space raw: banks must be absent *)
  a_bankable : bool;
      (** local traffic is entirely static reads and writes: under banks,
          a resident shadow window covering [a_max_l] admits the prepaid
          bank plane (dynamic local offsets, indirect refs and address
          formation disqualify) *)
}

let acct_of ops =
  let reads = ref 0 and writes = ref 0 and g_reads = ref 0 and g_writes = ref 0 in
  let lrefs = ref 0 and grefs = ref 0 in
  let max_l = ref (-1) and max_g = ref (-1) in
  let nb = ref false and bankable = ref true in
  let bill access ~global =
    match access with
    | Opcode.Read ->
      incr reads;
      if global then incr g_reads
    | Write ->
      incr writes;
      if global then incr g_writes
    | Address -> ()
  in
  let one { Opcode.region; offset; access } =
    match (region, offset, access) with
    | Local, Static n, (Read | Write) ->
      bill access ~global:false;
      incr lrefs;
      nb := true;
      if n > !max_l then max_l := n
    | Global, Static n, (Read | Write) ->
      bill access ~global:true;
      incr grefs;
      if n > !max_g then max_g := n
    (* a dynamic global meters itself, and no bank shadows the global frame *)
    | Global, _, _ -> ()
    | (Local | Indirect), _, _ ->
      nb := true;
      bankable := false
  in
  List.iter (fun (_, op, _) -> List.iter one (Opcode.effects op).refs) ops;
  {
    a_reads = !reads;
    a_writes = !writes;
    a_g_reads = !g_reads;
    a_g_writes = !g_writes;
    a_lrefs = !lrefs;
    a_grefs = !grefs;
    a_max_l = !max_l;
    a_max_g = !max_g;
    a_no_banks = !nb;
    a_bankable = !bankable;
  }

(* ------------------------------------------------------------------ *)
(* Peephole dataflow for fused runs.  A "source" is an instruction whose
   value is known without touching the stack; when a peephole consumes
   it directly the elided push must still truncate to a word, exactly as
   {!Eval_stack.push} would have.  [plane] selects the access plane the
   compiled closures touch static variables through — chosen per batch
   at run time, after the bill for that plane has been charged:

   - [Raw]: the prepaid storage plane — bill already charged, addresses
     already guarded, banks absent;
   - [Bank]: the prepaid {e bank} plane for banked engines: every static
     local offset proven inside the frame's resident shadow window, the
     bank references charged as a batch ({!Cost.bank_ref_n}), locals
     touching the bank registers raw and globals the prepaid store (the
     global frame is never shadowed).  Only batches whose local traffic
     is entirely static Ll/Sl qualify: dynamic local offsets can fall
     outside the window mid-batch, indirect refs consult the window
     comparator, and LLA flags the frame — all excluded statically.

   A batch that fits neither plane does not run fused at all (see
   [charge_and_run]).  Neither plane has an observable side effect on a
   variable read, so a peephole may read its operands in either order.
   The branch on the plane is resolved at closure-build time, and stored
   words are already truncated.  What an operator computes is
   {!Interp.binop}'s, on either plane. *)

type plane = Raw | Bank

(* The bank file, on a plane the guard proved banked.  [assert false] is
   unreachable: the [Bank] variants run only after the residency check
   matched on [Some]. *)
let bank_of (st : State.t) =
  match st.banks with Some b -> b | None -> assert false

type sval = Sconst of int | Slocal of int | Sglobal of int

let sval_of (op : Opcode.t) =
  match op with
  | Li n -> Some (Sconst (word n))
  | Lpd w -> Some (Sconst (word w))
  | Ll n -> Some (Slocal n)
  | Lg n -> Some (Sglobal n)
  | _ -> None

let is_src op = sval_of op <> None
let sval op = match sval_of op with Some s -> s | None -> assert false

let[@inline] load ~plane (st : State.t) = function
  | Sconst n -> n
  | Slocal n -> (
    match plane with
    | Raw -> Memory.prepaid_read st.mem (st.lf + n)
    | Bank -> Bank_file.raw_read (bank_of st) ~lf:st.lf ~index:n)
  | Sglobal n -> Memory.prepaid_read st.mem (st.gf + Image.global_base + n)

(* A two-operand operator: {!Interp.binop}'s domain, which the peepholes
   test.  Inside a run a DIV or MOD cannot trap: the run admits one only
   right after a non-zero literal (see [split_fusable]). *)
let is_binop op =
  match Opcode.effects op with { cls = Pure; pops = 2; pushes = 1; _ } -> true | _ -> false

(* Whether [op] is a DIV or MOD right after [lit], a literal with a
   non-zero divisor: such a DIV or MOD cannot trap, so it is fusable
   (see [split_fusable]). *)
let lit_divides (lit : Opcode.t) (op : Opcode.t) =
  match (lit, op) with (Li c | Lpd c), (Div | Mod) -> word c <> 0 | _ -> false

(* A jump's [(jump_if_true, displacement)]: JZ jumps when the popped (or
   elided operator's) value is zero, JNZ when it is not; J pops nothing
   and always jumps. *)
let cond (op : Opcode.t) =
  match op with Jz d -> (false, d) | Jnz d | J d -> (true, d) | _ -> assert false

(* One fusable instruction as a closure.  Only what the tier does
   differently from the interpreter is written here: static variable
   access on the prepaid planes (see [plane] above), NOP, and the jumps,
   whose target is a translation-time constant.  Every other instruction
   is {!Interp.exec} itself, under the block guard: the stack-only ops,
   LRC, OUT, LGA, LLA (banks are absent wherever it runs, so there is no
   frame to flag) and the dynamic-address ops, which meter their own
   references. *)
let compile_one ~plane ((pc, (op : Opcode.t), _) : int * Opcode.t * int)
    (k : State.t -> unit) : State.t -> unit =
  match op with
  | Ll n -> (
    match plane with
    | Raw ->
      fun (st : State.t) ->
        Eval_stack.unsafe_push st.stack (Memory.prepaid_read st.mem (st.lf + n));
        k st
    | Bank ->
      fun (st : State.t) ->
        Eval_stack.unsafe_push st.stack
          (Bank_file.raw_read (bank_of st) ~lf:st.lf ~index:n);
        k st)
  | Sl n -> (
    match plane with
    | Raw ->
      fun (st : State.t) ->
        Memory.prepaid_write st.mem (st.lf + n) (Eval_stack.unsafe_pop st.stack);
        k st
    | Bank ->
      fun (st : State.t) ->
        Bank_file.raw_write (bank_of st) ~lf:st.lf ~index:n
          (Eval_stack.unsafe_pop st.stack);
        k st)
  | Lg n ->
    fun (st : State.t) ->
      Eval_stack.unsafe_push st.stack
        (Memory.prepaid_read st.mem (st.gf + Image.global_base + n));
      k st
  | Sg n ->
    fun (st : State.t) ->
      Memory.prepaid_write st.mem
        (st.gf + Image.global_base + n)
        (Eval_stack.unsafe_pop st.stack);
      k st
  | Nop -> k
  | J d ->
    let target = pc + d in
    fun (st : State.t) -> Interp.taken st target
  | Jz d ->
    let target = pc + d in
    fun (st : State.t) ->
      if Eval_stack.unsafe_pop st.stack = 0 then Interp.taken st target
  | Jnz d ->
    let target = pc + d in
    fun (st : State.t) ->
      if Eval_stack.unsafe_pop st.stack <> 0 then Interp.taken st target
  | _ ->
    fun (st : State.t) ->
      Interp.exec st ~instr_pc:pc op;
      k st

let is_dynamic op =
  List.exists
    (function { Opcode.offset = Dynamic; _ } -> true | _ -> false)
    (Opcode.effects op).refs

(* A dynamic address past the store aborts the job with Memory's
   [Invalid_argument] in the middle of a batch that was counted and
   billed in full before it ran.  The interpreter stops having counted
   and charged up to and including the aborting access, with the PC past
   it.  The access has metered itself; [unbill ~plane ~tail ~next rest]
   takes back what the batch charged for the instructions after it:
   [rest], plus [tail] joined instructions that follow the run (the
   step's follower, a spliced leaf's RETURN). *)
let unbill ~plane ~tail ~next rest =
  let n = List.length rest + tail in
  let a = acct_of rest in
  fun (st : State.t) ->
    let m = st.metrics in
    m.instructions <- m.instructions - n;
    m.tier_fast_instrs <- m.tier_fast_instrs - n;
    st.pc_abs <- next;
    m.local_refs <- m.local_refs - a.a_lrefs;
    m.global_refs <- m.global_refs - a.a_grefs;
    match plane with
    | Raw ->
      Cost.block_bill st.cost ~instrs:(-n) ~reads:(-a.a_reads)
        ~writes:(-a.a_writes)
    | Bank ->
      Cost.block_bill st.cost ~instrs:(-n) ~reads:(-a.a_g_reads)
        ~writes:(-a.a_g_writes);
      Cost.bank_ref_n st.cost (-a.a_lrefs)

(* The fused fast path for a run of fusable instructions: a closure
   chain with peephole-collapsed idioms.  Output and dynamic data
   references happen in exactly the interpreter's order; elided stack
   crossings apply [word] wherever a push would have truncated.  [tail]
   is the number of instructions the batch counts after [ops], and
   [last] runs them: the chain's final closure calls it. *)
let rec compile ~plane ~tail ~last (ops : (int * Opcode.t * int) list) :
    State.t -> unit =
  let compile ~plane ~tail ops = compile ~plane ~tail ~last ops in
  match ops with
  | [] -> last
  (* LOAD a; LOAD b; BINOP; Jcond — the compare-and-branch idiom *)
  | (_, o1, _) :: (_, o2, _) :: (_, o3, _) :: [ (jp, ((Jz _ | Jnz _) as jop), _) ]
    when is_src o1 && is_src o2 && is_binop o3 ->
    let a = sval o1 and b = sval o2 in
    let jnz, d = cond jop in
    let target = jp + d in
    fun (st : State.t) ->
      let av = load ~plane st a in
      let bv = load ~plane st b in
      if (Interp.binop o3 av bv <> 0) = jnz then Interp.taken st target
  (* LOAD b; BINOP; Jcond — left operand from the stack *)
  | (_, o1, _) :: (_, o2, _) :: [ (jp, ((Jz _ | Jnz _) as jop), _) ]
    when is_src o1 && is_binop o2 ->
    let b = sval o1 in
    let jnz, d = cond jop in
    let target = jp + d in
    fun (st : State.t) ->
      let bv = load ~plane st b in
      let av = Eval_stack.unsafe_pop st.stack in
      if (Interp.binop o2 av bv <> 0) = jnz then Interp.taken st target
  (* LOAD a; LOAD b; BINOP; store — the assignment statement idiom
     (x := a OP b), with no stack traffic at all *)
  | (_, o1, _) :: (_, o2, _) :: (_, o3, _) :: (_, Sl n, _) :: rest
    when is_src o1 && is_src o2 && is_binop o3 ->
    let a = sval o1 and b = sval o2 in
    let k = compile ~plane ~tail rest in
    (match plane with
    | Raw ->
      fun (st : State.t) ->
        Memory.prepaid_write st.mem (st.lf + n)
          (Interp.binop o3 (load ~plane:Raw st a) (load ~plane:Raw st b));
        k st
    | Bank ->
      fun (st : State.t) ->
        Bank_file.raw_write (bank_of st) ~lf:st.lf ~index:n
          (Interp.binop o3 (load ~plane:Bank st a) (load ~plane:Bank st b));
        k st)
  | (_, o1, _) :: (_, o2, _) :: (_, o3, _) :: (_, Sg n, _) :: rest
    when is_src o1 && is_src o2 && is_binop o3 ->
    let a = sval o1 and b = sval o2 in
    let k = compile ~plane ~tail rest in
    fun (st : State.t) ->
      Memory.prepaid_write st.mem
        (st.gf + Image.global_base + n)
        (Interp.binop o3 (load ~plane st a) (load ~plane st b));
      k st
  (* LOAD a; LOAD b; BINOP *)
  | (_, o1, _) :: (_, o2, _) :: (_, o3, _) :: rest
    when is_src o1 && is_src o2 && is_binop o3 ->
    let a = sval o1 and b = sval o2 in
    let k = compile ~plane ~tail rest in
    fun (st : State.t) ->
      let av = load ~plane st a in
      let bv = load ~plane st b in
      Eval_stack.unsafe_push st.stack (Interp.binop o3 av bv);
      k st
  (* LOAD b; BINOP — left operand from the stack *)
  | (_, o1, _) :: (_, o2, _) :: rest when is_src o1 && is_binop o2 ->
    let b = sval o1 in
    let k = compile ~plane ~tail rest in
    fun (st : State.t) ->
      let bv = load ~plane st b in
      let av = Eval_stack.unsafe_pop st.stack in
      Eval_stack.unsafe_push st.stack (Interp.binop o2 av bv);
      k st
  (* LOAD; SL — straight-through variable copy *)
  | (_, o1, _) :: (_, Sl n, _) :: rest when is_src o1 ->
    let a = sval o1 in
    let k = compile ~plane ~tail rest in
    (match plane with
    | Raw ->
      fun (st : State.t) ->
        Memory.prepaid_write st.mem (st.lf + n) (load ~plane:Raw st a);
        k st
    | Bank ->
      fun (st : State.t) ->
        Bank_file.raw_write (bank_of st) ~lf:st.lf ~index:n
          (load ~plane:Bank st a);
        k st)
  (* LOAD a; LOAD b — paired pushes (argument staging before a call) *)
  | (_, o1, _) :: (_, o2, _) :: rest when is_src o1 && is_src o2 ->
    let a = sval o1 and b = sval o2 in
    let k = compile ~plane ~tail rest in
    fun (st : State.t) ->
      Eval_stack.unsafe_push st.stack (load ~plane st a);
      Eval_stack.unsafe_push st.stack (load ~plane st b);
      k st
  (* A followed jump mid-chain: the jump's accounting without the PC
     move — the successor closure is the target's code.  That holds for
     a jump that ends the run too, when the step's follower (the [tail]
     instructions [last] runs) sits at its target: [last] sets the PC
     itself.  Only a jump with nothing after it moves the PC. *)
  | (_, J _, _) :: rest when (match rest with _ :: _ -> true | [] -> tail > 0)
    ->
    let k = compile ~plane ~tail rest in
    fun (st : State.t) ->
      st.metrics.jumps_taken <- st.metrics.jumps_taken + 1;
      Cost.jump st.cost;
      k st
  | ((pc, op, len) as o) :: rest when is_dynamic op ->
    let access = compile_one ~plane o stop in
    let undo = unbill ~plane ~tail ~next:(pc + len) rest in
    let k = compile ~plane ~tail rest in
    fun (st : State.t) ->
      (match access st with
      | () -> ()
      | exception Invalid_argument msg ->
        undo st;
        invalid_arg msg);
      k st
  | o :: rest -> compile_one ~plane o (compile ~plane ~tail rest)

(* ------------------------------------------------------------------ *)
(* Transfer nodes.

   A node carries no call or return code of its own: every transfer is
   {!Transfer}'s, the code the interpreter runs.  A RETURN node, and the
   return of a spliced leaf, is {!Transfer.return_}; a call node is
   {!Transfer.call_local}, {!Transfer.call_external} or
   {!Transfer.call_direct}, called directly rather than through
   [Interp.exec]'s match.  Each resolves its destination live — the
   entry-vector word and fsi byte, the link-vector descriptor chased
   through the GFT (Figure 1), I1's link-table pair, the DIRECTCALL
   header — exactly as the interpreter does, so the tier bakes no link
   word and a rebind, host-side or by the program's own store, needs no
   notice.  The one translate-time reading is a call site's entry hint
   ([entry_hint]), which only picks the leaf the node may splice. *)

(* Code bases of all linked modules, sorted: the module owning a byte PC
   is the one with the greatest [2 * code_base <= pc]. *)
let code_bases (image : Image.t) =
  Array.of_list
    (List.sort_uniq Int.compare
       (List.map
          (fun ii -> ii.Image.ii_code_base)
          image.Image.dir.instances))

let cb_of_pc cbs pc =
  let best = ref (-1) in
  Array.iter (fun cb -> if 2 * cb <= pc then best := Int.max !best cb) cbs;
  if !best >= 0 then Some !best else None

let has_banks (st : State.t) = match st.banks with Some _ -> true | None -> false
let has_data_trace (st : State.t) =
  match st.data_trace with Some _ -> true | None -> false

(* Count one admitted batch, charge its static bill on the widest plane
   the runtime guard allows, and run that plane's compiled variant of
   [ops] (then [last], which the batch counts as [tail] more
   instructions).  The caller has already passed the depth guard.

   Plane choice, in order:
   - prepaid storage ([Raw]): nothing can observe or alter the batched
     accesses — no data trace, no bank shadowing the touched locals,
     every static address proven in range (dynamic references meter
     and bounds-check themselves in the chain);
   - prepaid bank ([Bank]): a banked engine whose batch's local traffic
     is all static Ll/Sl, with the frame's resident shadow window
     covering the highest offset — every local access would have hit
     the bank and every global access the store, so the bill is the
     static globals' storage references plus one batch of bank
     references.

   A batch that fits neither plane — under a data trace, a banked frame
   the batch cannot prove resident, or a static address past the store
   (only hand-made code holds one) — is not counted at all: [bail] runs
   instead and leaves the machine to {!Interp.step}, which records every
   reference and aborts where the interpreter does.
   A batch that can never qualify for [Bank] has no bank variant.

   Within a batch nothing changes bank ownership or window sizes (the
   ops are pure), so residency checked at the head holds for every
   access, and the batched bill, with the dynamic references' own,
   equals the interpreter's per-access sum exactly. *)
let[@inline] count_batch (m : State.metrics) ~batch ~super =
  m.instructions <- m.instructions + batch;
  m.tier_fast_instrs <- m.tier_fast_instrs + batch;
  m.tier_super_instrs <- m.tier_super_instrs + super

let charge_and_run ~batch ~super ~tail ~last ops ~bail =
  let a = acct_of ops in
  let reads = a.a_reads and writes = a.a_writes in
  let g_reads = a.a_g_reads and g_writes = a.a_g_writes in
  let lrefs = a.a_lrefs and grefs = a.a_grefs in
  let max_l = a.a_max_l and max_g = a.a_max_g in
  let no_banks = a.a_no_banks in
  let bankable = a.a_bankable && lrefs > 0 in
  let fused_raw = compile ~plane:Raw ~tail ~last ops in
  let fused_bank =
    if bankable then compile ~plane:Bank ~tail ~last ops else stop
  in
  fun (st : State.t) ->
    let m = st.metrics in
    let sz = Memory.size st.mem in
    let trace_free = not (has_data_trace st) in
    let globals_ok = max_g < 0 || st.gf + Image.global_base + max_g < sz in
    if
      trace_free
      && ((not no_banks) || not (has_banks st))
      && (max_l < 0 || st.lf + max_l < sz)
      && globals_ok
    then begin
      count_batch m ~batch ~super;
      Cost.block_bill st.cost ~instrs:batch ~reads ~writes;
      m.local_refs <- m.local_refs + lrefs;
      m.global_refs <- m.global_refs + grefs;
      fused_raw st
    end
    else if
      bankable && trace_free && globals_ok
      &&
      match st.banks with
      | Some bf -> max_l < Bank_file.resident_len bf ~lf:st.lf
      | None -> false
    then begin
      count_batch m ~batch ~super;
      Cost.block_bill st.cost ~instrs:batch ~reads:g_reads ~writes:g_writes;
      Cost.bank_ref_n st.cost lrefs;
      m.local_refs <- m.local_refs + lrefs;
      m.global_refs <- m.global_refs + grefs;
      fused_bank st
    end
    else bail st

(* ------------------------------------------------------------------ *)
(* Cross-call fusion: splicing a known-leaf callee into the call site.

   A leaf procedure is a straight-line run of pure instructions ending
   in RETURN — no outgoing transfer, no trap-capable op (nor a DIV or
   MOD by a non-zero literal, which a step's run admits but a leaf does
   not), at most [leaf_cap] body instructions.  Its body can ride the
   caller's node:
   after the call node's transfer completes (machine exactly at the
   callee's entry boundary), one combined stack-depth guard admits the
   whole body-plus-RETURN batch, the meters are billed in one
   {!Cost.block_bill} — batched, but {e not} reordered across the call's
   allocation trap point, which already fired — and the RETURN is
   {!Transfer.return_}, as in a lone RET node.  If the depth guard
   fails the continuation simply returns: the call has completed at an
   exact boundary, and the dispatch loop carries on at the callee's
   entry with nothing to undo. *)

let leaf_body t ~entry_pc =
  match
    Predecode.straight_run t.pd ~pc:entry_pc ~cap:(leaf_cap + 1)
      ~ends:is_terminator
  with
  | None -> None
  | Some run -> (
    match List.rev run with
    | (rpc, Opcode.Ret, rlen) :: rev_body
      when List.for_all (fun (_, op, _) -> is_pure op) rev_body ->
      Some (List.rev rev_body, rpc, rlen)
    | _ -> None)

(* The spliced continuation for a leaf entered at [entry_pc], with the
   instruction count it can retire: depth guard, the charged body batch
   (the RETURN joins it), then the RETURN's transfer.  A failed guard, or
   a batch that declines to run, leaves the machine at the callee's
   entry boundary. *)
let compile_callee t ~entry_pc =
  match leaf_body t ~entry_pc with
  | None -> None
  | Some (body, ret_pc, ret_len) ->
    let need, maxd = guard_params body in
    let ret (st : State.t) =
      st.metrics.tier_fused_calls <- st.metrics.tier_fused_calls + 1;
      Transfer.return_ st
    in
    let batch = List.length body + 1 in
    let run =
      charge_and_run ~batch
        ~super:(if batch >= 2 then batch else 0)
        ~tail:1 ~last:ret body
        ~bail:(fun (st : State.t) -> st.pc_abs <- entry_pc)
    in
    let p_end = ret_pc + ret_len in
    let cont (st : State.t) =
      let d = Eval_stack.depth st.stack in
      if d >= need && d + maxd <= Eval_stack.capacity st.stack then begin
        st.pc_abs <- p_end;
        run st
      end
    in
    Some (cont, batch)

(* The fused continuation for the callee entered at [entry_pc] and its
   instruction count, when it is a known leaf; [(stop, 0)] otherwise. *)
let callee_for t ~entry_pc =
  let leaf =
    match Hashtbl.find_opt t.leaf_memo entry_pc with
    | Some l -> l
    | None ->
      let l = compile_callee t ~entry_pc in
      Hashtbl.replace t.leaf_memo entry_pc l;
      l
  in
  Option.value leaf ~default:(stop, 0)

(* The entry PC a call site's link-time binding names: where a leaf
   spliced into its node begins.  A hint only — the call resolves live,
   and the node runs the leaf only when the call landed on it.  LOCALCALL
   reads the entry-vector word of the code segment owning the site;
   EXTERNALCALL chases the import's descriptor through the GFT from the
   one instance owning that code (a module instantiated more than once
   has no single binding); DIRECTCALL's header sits at a fixed target. *)
let entry_hint t ~tpc (op : Opcode.t) =
  let mem = t.image.Image.mem in
  let entry cb ev_addr = (2 * cb) + Memory.peek mem ev_addr + 1 in
  match op with
  | Dfc target_abs -> Some (target_abs + 3)
  | Sdfc d -> Some (tpc + d + 3)
  | _ -> (
    try
      match (op, cb_of_pc t.cbs tpc) with
      | Lfc n, Some cb -> Some (entry cb (cb + n))
      | Efc n, Some cb -> (
        match
          List.filter
            (fun ii -> ii.Image.ii_code_base = cb)
            t.image.Image.dir.instances
        with
        | [ ii ] ->
          let w = Memory.peek mem (ii.Image.ii_gf_addr - 1 - n) in
          if Descriptor.word_kind w <> Descriptor.word_proc then None
          else
            let g =
              Memory.peek mem
                (Gft.base t.image.Image.gft + Descriptor.word_gfi w)
            in
            let cb_t = Memory.peek mem (g land 0xFFFC) in
            Some (entry cb_t (cb_t + ((g land 3) * 32) + Descriptor.word_ev w))
        | _ -> None)
      | _ -> None
    with Invalid_argument _ -> None)

(* A call node: the interpreter's own call, then — when the call landed
   on [entry_pc] with the machine still running — the spliced [leaf]. *)
let call_node ~tpc (op : Opcode.t) ~entry_pc ~leaf : State.t -> unit =
  let[@inline] landed (st : State.t) =
    match st.status with
    | State.Running when st.pc_abs = entry_pc -> leaf st
    | _ -> ()
  in
  match op with
  | Lfc n ->
    fun (st : State.t) ->
      Transfer.call_local st ~ev_index:n;
      landed st
  | Efc n ->
    fun (st : State.t) ->
      Transfer.call_external st ~lv_index:n;
      landed st
  | Dfc target_abs ->
    fun (st : State.t) ->
      Transfer.call_direct st ~target_abs;
      landed st
  | Sdfc d ->
    let target_abs = tpc + d in
    fun (st : State.t) ->
      Transfer.call_direct st ~target_abs;
      landed st
  | _ -> invalid_arg "Tier.call_node: not a call"

(* The node for a block-ending instruction, with the extra instruction
   headroom a spliced leaf can retire on top of the block's own count.
   Any other terminator, and an allocator op or a DIV or MOD the run
   could not prove safe, is {!Interp.exec}'s. *)
let transfer_node t ~tpc (op : Opcode.t) : int * (State.t -> unit) =
  match op with
  | Ret -> (0, Transfer.return_)
  | Lfc _ | Efc _ | Dfc _ | Sdfc _ -> (
    match entry_hint t ~tpc op with
    | Some entry_pc ->
      let leaf, extra = callee_for t ~entry_pc in
      (extra, call_node ~tpc op ~entry_pc ~leaf)
    | None -> (0, call_node ~tpc op ~entry_pc:(-1) ~leaf:stop))
  | _ -> (0, fun (st : State.t) -> Interp.exec st ~instr_pc:tpc op)

(* A followed unconditional jump (one with more instructions collected
   after it) is fusable: inside a chain it costs its dispatch and jump
   accounting but moves no PC — the chain {e is} the jump.  In final
   position it is the ordinary fused terminator.  A DIV or MOD whose
   preceding op in the run is a literal with a non-zero divisor cannot
   trap, so it is fusable too; any other DIV/MOD (a variable or literal-0
   divisor, or the first op of a node, as at a jump target) is a
   follower that ends the node.  This is the one place a step's run is
   formed. *)
let rec split_fusable acc (ops : (int * Opcode.t * int) list) =
  match ops with
  | [] -> (List.rev acc, [])
  | ((_, op, _) as o) :: rest -> (
    match Opcode.effects op with
    (* pure, or an unconditional jump (it pops no condition) *)
    | { cls = Pure | Data; may_trap = false; _ } | { cls = Jump; pops = 0; _ } ->
      split_fusable (o :: acc) rest
    | _ when match acc with (_, lit, _) :: _ -> lit_divides lit op | [] -> false ->
      split_fusable (o :: acc) rest
    (* a conditional jump or HALT closes the run; anything else follows it *)
    | { cls = Jump; _ } | { cls = Stop; may_trap = false; _ } -> (List.rev (o :: acc), [])
    | _ -> (List.rev acc, ops))

(* Superblock formation: an unconditional jump to a decodable target does
   not end collection — the block continues at the target, turning a loop
   body's back-edge or a forward hop into straight-line code — and
   neither does a call, whose fused fast path returns control to the
   next instruction (the segment chain in [build_node] verifies that it
   did before running the continuation).  [block_cap] bounds the chase
   (a self-jump simply fills the block with jumps). *)
let collect_block pd pc0 =
  let rec go pc n acc =
    if n >= block_cap then List.rev acc
    else
      let len = Predecode.len_at pd pc in
      if len = 0 then List.rev acc
      else
        let op = Predecode.op_at pd pc in
        let acc = (pc, op, len) :: acc in
        match Opcode.effects op with
        | { cls = Jump; pops = 0; _ }
          when n + 1 < block_cap && Predecode.len_at pd (pc + snd (cond op)) > 0 ->
          go (pc + snd (cond op)) (n + 1) acc
        | { cls = Jump | Transfer | Stop; _ } -> List.rev acc
        | _ -> go (pc + len) (n + 1) acc
  in
  go pc0 0 []

(* Build the node for one boundary.

   The block is decomposed into a chain of {e steps}: each a (possibly
   empty) run of fusable instructions plus at most one follower — the
   first non-fusable instruction after the run.  Followers come in two
   kinds:

   - a {e call}: joins the step's batch for counting, runs its call node
     (which may splice a known-leaf callee and return), and — when
     control provably came straight back to the next instruction with
     the machine still running — chains into the following step, so a
     call-dense loop body is one node, not one dispatch per call site;
   - a {e terminator}: anything else that is not fusable — a jump the
     run could not fuse, RETURN, XFER, FORK, ..., and the trap-capable
     NEWREC, FREEREC and DIV or MOD that [split_fusable] could not prove
     safe.  It joins the batch, then runs its transfer node or
     {!Interp.exec} with the PC past it (a catchable trap signals by
     raising to the handler [run] installs) and ends the node.  The
     instructions collected after it are left to the next dispatch.

   Every step guards, counts and bills only its own batch, in program
   order: the meters are batched but never reordered across a potential
   trap point.  A step boundary is an exact machine boundary.  A first
   step that cannot run fused — its depth guard fails or its batch
   declines — retires exactly one instruction through {!Interp.step} and
   returns to dispatch, so progress is guaranteed; a later step in that
   case returns with the PC on its first instruction, where the previous
   follower left it, and the dispatch loop re-enters there.

   The returned count is an {e upper bound} on instructions the node
   can retire (its steps plus any spliced callee batches) — the run
   loop admits a node only when the whole bound fits the remaining
   budget, so fuel expiry stays exact.  [fused] is true when some fast
   path covers two or more instructions in one batch. *)

type follower =
  | F_end  (** fully fused to the block's end (or to [block_cap]) *)
  | F_term of int * Opcode.t * int
  | F_call of int * Opcode.t * int

let rec steps_of ops =
  match ops with
  | [] -> []
  | _ -> (
    let fusable, tail = split_fusable [] ops in
    match tail with
    | [] -> [ (fusable, F_end) ]
    | (tpc, top, tlen) :: rest -> (
      match (Opcode.effects top).cls with
      | Call -> (fusable, F_call (tpc, top, tlen)) :: steps_of rest
      | _ -> [ (fusable, F_term (tpc, top, tlen)) ]))

let build_node t ops : int * bool * (State.t -> unit) =
  let steps = steps_of ops in
  let kept =
    List.fold_left
      (fun n (fusable, follower) ->
        n + List.length fusable + match follower with F_end -> 0 | _ -> 1)
      0 steps
  in
  let extra = ref 0 in
  let any_super = ref false in
  let rec comp ~first steps : State.t -> unit =
    match steps with
    | [] -> stop
    | (fusable, follower) :: rest_steps ->
      let k = comp ~first:false rest_steps in
      let f = List.length fusable in
      let tail_fn =
        match follower with
        | F_end -> stop
        | F_term (tpc, top, tlen) ->
          let t_next = tpc + tlen in
          let e, term = transfer_node t ~tpc top in
          extra := !extra + e;
          fun (st : State.t) ->
            st.pc_abs <- t_next;
            term st
        | F_call (tpc, top, tlen) ->
          let t_next = tpc + tlen in
          let e, call = transfer_node t ~tpc top in
          extra := !extra + e;
          fun (st : State.t) ->
            st.pc_abs <- t_next;
            call st;
            (* Chain on only when the call provably completed and
               returned: spliced fast path, machine still running, PC
               back on the continuation.  Anything else — generic path
               now sitting in the callee, a depth-guard bail at the
               callee's entry — leaves the node at an exact boundary for
               the dispatch loop. *)
            (match st.status with
            | State.Running when st.pc_abs = t_next -> k st
            | _ -> ())
      in
      if f = 0 then (
        match follower with
        | F_end -> stop
        | _ ->
          (* A lone follower at the boundary (a jump target landing on
             a RET, a call, or a trap-capable op): per-instruction
             accounting, then the follower. *)
          fun (st : State.t) ->
            let m = st.metrics in
            m.instructions <- m.instructions + 1;
            m.tier_fast_instrs <- m.tier_fast_instrs + 1;
            Cost.dispatch st.cost;
            tail_fn st)
      else begin
        let fail = if first then Interp.step else stop in
        let need, maxd = guard_params fusable in
        (* The follower joins the batch: the interpreter counts an
           instruction before executing it, so pre-counting leaves every
           meter exactly right even if the follower traps — but its PC
           must be exact, so it runs after the fused prefix, never
           inside it. *)
        let tail, last =
          match follower with F_end -> (0, stop) | _ -> (1, tail_fn)
        in
        let batch = f + tail in
        let super = if batch >= 2 then batch else 0 in
        if super > 0 then any_super := true;
        (* A batch that declines to run leaves the machine on its first
           instruction, where the depth guard's failure would. *)
        let pc_first =
          match fusable with (pc, _, _) :: _ -> pc | [] -> assert false
        in
        let run =
          charge_and_run ~batch ~super ~tail ~last fusable
            ~bail:(fun (st : State.t) ->
              st.pc_abs <- pc_first;
              fail st)
        in
        match follower with
        | F_end ->
          (* Fully fused tail: PC goes to the block end up front (only
             a final fused jump may overwrite it), exactly where the
             interpreter's per-instruction advances would leave it. *)
          let p_end =
            match List.rev fusable with
            | (pc, _, len) :: _ -> pc + len
            | [] -> assert false
          in
          fun (st : State.t) ->
            let d = Eval_stack.depth st.stack in
            if d >= need && d + maxd <= Eval_stack.capacity st.stack then begin
              st.pc_abs <- p_end;
              run st
            end
            else fail st
        | _ ->
          fun (st : State.t) ->
            let d = Eval_stack.depth st.stack in
            if d >= need && d + maxd <= Eval_stack.capacity st.stack then
              run st
            else fail st
      end
  in
  let body = comp ~first:true steps in
  let total = kept + !extra in
  let pc0 = match ops with (pc, _, _) :: _ -> pc | [] -> -1 in
  (* Self-looping node: when the body's back-edge lands on this node's
     own boundary, iterate in place instead of returning to the
     dispatch loop — under exactly its admission check (still running,
     PC on the boundary, the whole bound fits the remaining budget).
     Each iteration re-runs the same guards and bills as a fresh
     dispatch would; only the host-side table lookup is elided. *)
  let rec spin (st : State.t) =
    body st;
    match st.status with
    | State.Running
      when st.pc_abs = pc0
           && st.metrics.instructions + total <= st.fuel_limit ->
      spin st
    | _ -> ()
  in
  (total, !any_super, spin)

(* ------------------------------------------------------------------ *)
(* Lazy per-procedure translation.

   Procedure body ranges come from the host directory (deduplicated
   across instances sharing a module's code); every PC the machine can
   dispatch lies inside one — execution enters a procedure at its first
   instruction and control flow (jumps, returns, resumes, trap handlers)
   stays inside bodies.  A procedure's boundaries are translated on the
   first XFER into it, under a mutex so concurrent domains sharing the
   attachment race safely; slots are published as immutable [node]
   records (a racing reader sees [no_node] or a whole node, and a stale
   read merely deopts one interpreter step). *)

let proc_tables (image : Image.t) pd =
  let base = Predecode.base pd and limit = Predecode.limit pd in
  let size = Int.max 0 (limit - base) in
  let proc_of = Array.make size (-1) in
  let by_entry = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (inst, _) (pi : Image.proc_info) ->
      match Image.find_instance image inst with
      | ii ->
        let entry =
          (2 * ii.Image.ii_code_base) + pi.Image.pi_entry_offset + 1
        in
        Hashtbl.replace by_entry entry (entry + pi.Image.pi_body_bytes)
      | exception Not_found -> ())
    image.Image.dir.procs;
  let ranges =
    Array.of_list
      (List.sort
         (fun (lo, _) (lo', _) -> Int.compare lo lo')
         (Hashtbl.fold (fun lo hi acc -> (lo, hi) :: acc) by_entry []))
  in
  Array.iteri
    (fun p (lo, hi) ->
      let lo = Int.max lo base and hi = Int.min hi limit in
      for pc = lo to hi - 1 do
        proc_of.(pc - base) <- p
      done)
    ranges;
  (proc_of, ranges)

let create (image : Image.t) =
  let pd = Image.predecode image in
  let base = Predecode.base pd and limit = Predecode.limit pd in
  let size = Int.max 0 (limit - base) in
  let proc_of, ranges = proc_tables image pd in
  {
    base;
    slots = Array.make size no_node;
    image;
    pd;
    cbs = code_bases image;
    proc_of;
    ranges;
    translated = Array.make (Array.length ranges) false;
    lock = Mutex.create ();
    leaf_memo = Hashtbl.create 16;
    n_boundaries = 0;
    n_fused = 0;
    n_translated = 0;
  }

let fill_range t lo hi =
  let lo = Int.max lo t.base
  and hi = Int.min hi (t.base + Array.length t.slots) in
  for pc = lo to hi - 1 do
    if Predecode.len_at t.pd pc > 0 then begin
      let count, fused, exec = build_node t (collect_block t.pd pc) in
      t.slots.(pc - t.base) <- { n_count = count; n_exec = exec };
      t.n_boundaries <- t.n_boundaries + 1;
      if fused then t.n_fused <- t.n_fused + 1
    end
  done

(* First XFER into procedure [p]: translate its body's boundaries and
   publish the nodes.  Returns true when this call did the work (false:
   another domain won the race, or it was already done). *)
let ensure_proc t p =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if t.translated.(p) then false
      else begin
        let lo, hi = t.ranges.(p) in
        fill_range t lo hi;
        t.n_translated <- t.n_translated + 1;
        t.translated.(p) <- true;
        true
      end)

let translate image =
  let t = create image in
  Array.iteri (fun p _ -> ignore (ensure_proc t p : bool)) t.ranges;
  t

type Image.attachment += Translation of t

let of_image (image : Image.t) =
  match image.dir.attachment with
  | Some (Translation t) -> (t, true)
  | _ ->
    let t = create image in
    image.dir.attachment <- Some (Translation t);
    (t, false)

let boundaries t = t.n_boundaries
let fused_boundaries t = t.n_fused
let procs t = Array.length t.ranges
let procs_translated t = t.n_translated
let invalidations (_ : t) = 0

(* A tracer is fixed for a run ([State.reset] is its only writer), and a
   traced run is the interpreter's: every event in its exact order. *)
let run ?(max_steps = 20_000_000) t (st : State.t) =
  match st.tracer with
  | Some _ -> Interp.run ~max_steps st
  | None ->
    let m = st.metrics in
    (* Saturated: a resumed run given a budget near [max_int] must not
       wrap round to a limit already passed.  A non-positive budget
       stops before any instruction, as [Interp.run] does. *)
    let limit =
      if max_steps > max_int - m.instructions then max_int
      else m.instructions + max_steps
    in
    st.fuel_limit <- limit;
    let base = t.base in
    let slots = t.slots and proc_of = t.proc_of in
    let size = Array.length slots in
    let rec go (st : State.t) =
      if st.status = State.Running then
        if m.instructions >= limit then st.status <- State.Trapped State.Step_limit
        else begin
          let idx = st.pc_abs - base in
          let nd =
            if idx >= 0 && idx < size then Array.unsafe_get slots idx else no_node
          in
          if nd.n_count > 0 && m.instructions + nd.n_count <= limit then
            nd.n_exec st
          else if
            nd.n_count = 0 && idx >= 0 && idx < size
            &&
            let p = Array.unsafe_get proc_of idx in
            p >= 0 && not (Array.unsafe_get t.translated p)
          then begin
            (* First XFER into an untranslated procedure: translate it
               now and retry this PC without retiring an instruction. *)
            if ensure_proc t (Array.unsafe_get proc_of idx) then
              m.tier_lazy_translations <- m.tier_lazy_translations + 1
          end
          else begin
            (* No node (undecodable or uncovered PC), or the remaining
               budget cannot cover a whole block: one interpreter step —
               by construction it lands back on an exact boundary. *)
            m.tier_deopts <- m.tier_deopts + 1;
            Interp.step st
          end;
          go st
        end
    in
    (* The run's one trap handler, installed again after each trap. *)
    let rec loop () = if Transfer.catch_traps st go then loop () in
    loop ()
