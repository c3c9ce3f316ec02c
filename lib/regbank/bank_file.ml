open Fpc_machine

type pointer_policy = Flush_flagged | Divert

type config = {
  bank_count : int;
  bank_words : int;
  track_dirty : bool;
  pointer_policy : pointer_policy;
}

let default_config =
  {
    bank_count = 4;
    bank_words = 16;
    track_dirty = true;
    pointer_policy = Flush_flagged;
  }

(* Owner encoding, kept as an immediate int so ownership changes never
   allocate: [owner_free], [owner_stack], or the shadowed frame's LF. *)
let owner_free = -2
let owner_stack = -1

type bank = {
  id : int;
  data : int array;
  dirty : bool array;
  mutable owner : int;
  mutable shadow_len : int;
  mutable age : int;
}

type stats = {
  xfers : int;
  overflows : int;
  underflows : int;
  words_written_back : int;
  words_loaded : int;
  flush_events : int;
  flagged_flushes : int;
  diversions : int;
  c2_violations : int;
}

(* Frame→bank lookup is a linear scan over the (≤8) banks — exactly the
   hardware comparator of §7.4, and unlike the Hashtbl it replaced it
   allocates nothing on the per-local-reference hot path. *)
type t = {
  cfg : config;
  mem : Memory.t;
  cost : Cost.t;
  ladder : Fpc_frames.Size_class.t;
  banks : bank array;
  flagged : (int, unit) Hashtbl.t;
  mutable stack_bank : int; (* bank id, or -1 *)
  mutable last_bi : int;
      (* one-entry [bank_index] cache: straight-line code touches the
         same frame's bank access after access, so remembering the last
         hit skips the comparator scan.  Self-validating — a hit counts
         only if that bank still owns the requested lf — so owner
         changes never need to invalidate it.  Host-side only: the
         simulated comparator cost is unchanged. *)
  mutable clock : int;
  mutable s_xfers : int;
  mutable s_overflows : int;
  mutable s_underflows : int;
  mutable s_written_back : int;
  mutable s_loaded : int;
  mutable s_flush_events : int;
  mutable s_flagged_flushes : int;
  mutable s_diversions : int;
  mutable s_c2 : int;
  mutable on_event : (Fpc_trace.Event.kind -> unit) option;
}

let create ?(config = default_config) ~mem ~cost ~ladder () =
  if config.bank_count <= 0 || config.bank_words <= 0 then
    invalid_arg "Bank_file.create: bad configuration";
  {
    cfg = config;
    mem;
    cost;
    ladder;
    banks =
      Array.init config.bank_count (fun id ->
          {
            id;
            data = Array.make config.bank_words 0;
            dirty = Array.make config.bank_words false;
            owner = owner_free;
            shadow_len = 0;
            age = 0;
          });
    flagged = Hashtbl.create 16;
    stack_bank = -1;
    last_bi = -1;
    clock = 0;
    s_xfers = 0;
    s_overflows = 0;
    s_underflows = 0;
    s_written_back = 0;
    s_loaded = 0;
    s_flush_events = 0;
    s_flagged_flushes = 0;
    s_diversions = 0;
    s_c2 = 0;
    on_event = None;
  }

(* A loop rather than [Array.fill]: several banks are cleared per I4 call
   and return, and [Array.fill] leaves OCaml for a C call each time. *)
let[@inline] clear_dirty bank =
  let d = bank.dirty in
  for i = 0 to Array.length d - 1 do
    d.(i) <- false
  done

let config t = t.cfg
let set_on_event t f = t.on_event <- f

let reset t =
  Array.iter
    (fun b ->
      b.owner <- owner_free;
      b.shadow_len <- 0;
      b.age <- 0;
      clear_dirty b)
    t.banks;
  Hashtbl.reset t.flagged;
  t.stack_bank <- -1;
  t.clock <- 0;
  t.s_xfers <- 0;
  t.s_overflows <- 0;
  t.s_underflows <- 0;
  t.s_written_back <- 0;
  t.s_loaded <- 0;
  t.s_flush_events <- 0;
  t.s_flagged_flushes <- 0;
  t.s_diversions <- 0;
  t.s_c2 <- 0

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* The scans below are toplevel recursive functions, not local ones: a
   [let rec] nested inside the lookup would capture its environment and
   allocate a closure on every per-reference call. *)
let rec scan_owner banks n target i =
  if i >= n then -1
  else if banks.(i).owner = target then i
  else scan_owner banks n target (i + 1)

(* Index of the bank shadowing [lf], or -1.  Allocation-free; the
   one-entry cache makes the common straight-line case a single
   compare. *)
let[@inline] bank_index t ~lf =
  let bi = t.last_bi in
  if bi >= 0 && t.banks.(bi).owner = lf then bi
  else begin
    let bi = scan_owner t.banks (Array.length t.banks) lf 0 in
    if bi >= 0 then t.last_bi <- bi;
    bi
  end

(* Write a bank's shadow back to its frame.  Dirty tracking lets the
   machine skip registers that were never written (§7.1). *)
let write_back t bank =
  if bank.owner >= 0 then begin
    let lf = bank.owner in
    let n = ref 0 in
    for i = 0 to bank.shadow_len - 1 do
      if (not t.cfg.track_dirty) || bank.dirty.(i) then begin
        Memory.write t.mem (lf + i) bank.data.(i);
        t.s_written_back <- t.s_written_back + 1;
        incr n
      end
    done;
    if !n > 0 then
      match t.on_event with
      | Some f -> f (Fpc_trace.Event.Bank_spill !n)
      | None -> ()
  end

let detach t bank =
  if bank.owner = owner_stack && t.stack_bank = bank.id then t.stack_bank <- -1;
  bank.owner <- owner_free;
  bank.shadow_len <- 0;
  clear_dirty bank

(* Find a bank to use: a free one, else evict the oldest local bank.  The
   current stack bank is never a victim.  Raises if every bank is the
   stack bank (bank_count = 0 is rejected at create). *)
(* Oldest local-owning bank (ties keep the first), or -1. *)
let rec scan_victim banks n best i =
  if i >= n then best
  else
    let best =
      if banks.(i).owner >= 0 && (best < 0 || banks.(i).age < banks.(best).age)
      then i
      else best
    in
    scan_victim banks n best (i + 1)

let acquire t =
  let n = Array.length t.banks in
  let fi = scan_owner t.banks n owner_free 0 in
  if fi >= 0 then begin
    let b = t.banks.(fi) in
    b.age <- tick t;
    b
  end
  else begin
    let vi = scan_victim t.banks n (-1) 0 in
    if vi < 0 then invalid_arg "Bank_file.acquire: no evictable bank"
    else begin
      let b = t.banks.(vi) in
      t.s_overflows <- t.s_overflows + 1;
      write_back t b;
      detach t b;
      b.age <- tick t;
      b
    end
  end

let shadow_len_for t ~payload_words = Int.min t.cfg.bank_words payload_words

let assign t bank ~lf ~payload_words =
  bank.owner <- lf;
  bank.shadow_len <- shadow_len_for t ~payload_words;
  clear_dirty bank;
  bank.age <- tick t

(* [on_call_n] is the transfer engine's entry point: a plain [nargs]
   argument, because wrapping it in an option at the call site would be a
   per-call allocation. *)
let on_call_n t ~nargs ~callee_lf ~payload_words ~args =
  t.s_xfers <- t.s_xfers + 1;
  (* Rename the stack bank (or a fresh one if no stack bank exists, e.g.
     right after a flush) into the callee's local bank. *)
  let bank =
    if t.stack_bank >= 0 then begin
      let b = t.banks.(t.stack_bank) in
      t.stack_bank <- -1;
      b.age <- tick t;
      b
    end
    else acquire t
  in
  assign t bank ~lf:callee_lf ~payload_words;
  for i = 0 to nargs - 1 do
    let v = args.(i) in
    if i < bank.shadow_len then begin
      bank.data.(i) <- v;
      bank.dirty.(i) <- true
    end
    else
      (* The argument record overflows the bank window: the excess words
         go straight to the frame in storage. *)
      Memory.write t.mem (callee_lf + i) v
  done;
  (* A fresh stack bank for the callee's expression evaluation. *)
  let sb = acquire t in
  sb.owner <- owner_stack;
  sb.shadow_len <- 0;
  t.stack_bank <- sb.id

let on_call ?nargs t ~callee_lf ~payload_words ~args =
  let nargs = match nargs with Some n -> n | None -> Array.length args in
  on_call_n t ~nargs ~callee_lf ~payload_words ~args

let load_bank t bank ~lf =
  for i = 0 to bank.shadow_len - 1 do
    bank.data.(i) <- Memory.read t.mem (lf + i);
    bank.dirty.(i) <- false;
    t.s_loaded <- t.s_loaded + 1
  done;
  if bank.shadow_len > 0 then
    match t.on_event with
    | Some f -> f (Fpc_trace.Event.Bank_load bank.shadow_len)
    | None -> ()

let ensure_bank t ~lf =
  t.s_xfers <- t.s_xfers + 1;
  let bi = bank_index t ~lf in
  if bi >= 0 then t.banks.(bi).age <- tick t
  else begin
    t.s_underflows <- t.s_underflows + 1;
    (* The frame's payload size comes from its fsi word — one storage
       reference, part of the underflow cost. *)
    let fsi = Memory.read t.mem (lf + Fpc_frames.Frame.off_fsi) in
    let payload_words =
      Fpc_frames.Size_class.block_words t.ladder fsi - Fpc_frames.Frame.overhead_words
    in
    let b = acquire t in
    assign t b ~lf ~payload_words;
    load_bank t b ~lf
  end

let release_frame t ~lf =
  let bi = bank_index t ~lf in
  if bi >= 0 then detach t t.banks.(bi);
  if Hashtbl.length t.flagged > 0 then Hashtbl.remove t.flagged lf

let flag_frame t ~lf = Hashtbl.replace t.flagged lf ()
let is_flagged t ~lf = Hashtbl.mem t.flagged lf

let on_leave t ~lf =
  match t.cfg.pointer_policy with
  | Divert -> ()
  | Flush_flagged ->
    if Hashtbl.length t.flagged > 0 && is_flagged t ~lf then begin
      let bi = bank_index t ~lf in
      if bi >= 0 then begin
        let b = t.banks.(bi) in
        t.s_flagged_flushes <- t.s_flagged_flushes + 1;
        write_back t b;
        detach t b
      end
    end

let flush_all t =
  t.s_flush_events <- t.s_flush_events + 1;
  (* A loop, not [Array.iter]: a closure over [t] would be one
     allocation per process switch. *)
  for i = 0 to Array.length t.banks - 1 do
    let b = t.banks.(i) in
    if b.owner >= 0 then begin
      write_back t b;
      detach t b
    end
    else if b.owner = owner_stack then detach t b
  done

let[@inline] read_local t ~lf ~index =
  let bi = bank_index t ~lf in
  if bi >= 0 && index < t.banks.(bi).shadow_len then begin
    Cost.bank_ref t.cost;
    t.banks.(bi).data.(index)
  end
  else Memory.read t.mem (lf + index)

let[@inline] write_local t ~lf ~index v =
  let v = Fpc_util.Bits.to_word v in
  let bi = bank_index t ~lf in
  if bi >= 0 && index < t.banks.(bi).shadow_len then begin
    Cost.bank_ref t.cost;
    t.banks.(bi).data.(index) <- v;
    t.banks.(bi).dirty.(index) <- true
  end
  else Memory.write t.mem (lf + index) v

(* Locate the shadowed window containing [addr], if any: the hardware
   comparator of §7.4.  Windows of distinct live frames never overlap
   (they sit inside disjoint frame blocks), so first hit = only hit.
   Returns the bank index, or -1. *)
let rec scan_window banks n addr i =
  if i >= n then -1
  else
    let lf = banks.(i).owner in
    if lf >= 0 && addr >= lf && addr < lf + banks.(i).shadow_len then i
    else scan_window banks n addr (i + 1)

let window_index t addr = scan_window t.banks (Array.length t.banks) addr 0

let data_read t ~addr =
  let bi = window_index t addr in
  if bi < 0 then Memory.read t.mem addr
  else begin
    let b = t.banks.(bi) in
    (match t.cfg.pointer_policy with
    | Flush_flagged -> t.s_c2 <- t.s_c2 + 1
    | Divert -> ());
    t.s_diversions <- t.s_diversions + 1;
    Cost.bank_ref t.cost;
    Cost.divert t.cost;
    let lf = b.owner in
    assert (lf >= 0);
    b.data.(addr - lf)
  end

let data_write t ~addr v =
  let v = Fpc_util.Bits.to_word v in
  let bi = window_index t addr in
  if bi < 0 then Memory.write t.mem addr v
  else begin
    let b = t.banks.(bi) in
    (match t.cfg.pointer_policy with
    | Flush_flagged -> t.s_c2 <- t.s_c2 + 1
    | Divert -> ());
    t.s_diversions <- t.s_diversions + 1;
    Cost.bank_ref t.cost;
    Cost.divert t.cost;
    let lf = b.owner in
    assert (lf >= 0);
    b.data.(addr - lf) <- v;
    b.dirty.(addr - lf) <- true
  end

(* Raw window access for a prepaid compiled block: the caller has already
   checked residency with {!resident_len} (and nothing between the check
   and the accesses can change bank ownership), charged the bank
   references as a batch, and counted the metric — so these touch the
   shadow directly.  Identical data movement to {!read_local}/
   [write_local] on their bank-hit path, with the accounting hoisted. *)
let[@inline] raw_read t ~lf ~index = t.banks.(bank_index t ~lf).data.(index)

let[@inline] raw_write t ~lf ~index v =
  let b = t.banks.(bank_index t ~lf) in
  b.data.(index) <- Fpc_util.Bits.to_word v;
  b.dirty.(index) <- true

(* Words of [lf]'s resident shadow window, or -1 when no bank owns it:
   the residency guard for the raw accessors above. *)
let[@inline] resident_len t ~lf =
  let bi = bank_index t ~lf in
  if bi < 0 then -1 else t.banks.(bi).shadow_len

let has_bank t ~lf = bank_index t ~lf >= 0

let bank_id t ~lf =
  let bi = bank_index t ~lf in
  if bi < 0 then None else Some bi

let stats t =
  {
    xfers = t.s_xfers;
    overflows = t.s_overflows;
    underflows = t.s_underflows;
    words_written_back = t.s_written_back;
    words_loaded = t.s_loaded;
    flush_events = t.s_flush_events;
    flagged_flushes = t.s_flagged_flushes;
    diversions = t.s_diversions;
    c2_violations = t.s_c2;
  }

let check_coherence t =
  let ( let* ) r f = Result.bind r f in
  let* () =
    Array.fold_left
      (fun acc b ->
        let* () = acc in
        let lf = b.owner in
        if lf >= 0 && bank_index t ~lf <> b.id then
          Error
            (Printf.sprintf "bank %d owns frame %d but lookup finds bank %d" b.id lf
               (bank_index t ~lf))
        else Ok ())
      (Ok ()) t.banks
  in
  if t.stack_bank >= 0 && t.banks.(t.stack_bank).owner <> owner_stack then
    Error (Printf.sprintf "stack bank %d has non-stack owner" t.stack_bank)
  else Ok ()
