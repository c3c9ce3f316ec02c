type address = int

(* The store is a byte buffer holding one 16-bit word per two bytes (host
   byte order; nothing outside this module sees the bytes).  A buffer
   carries no pointers, so the GC never scans it, and [clone] (an arena
   miss) and [reset_from] (a hit) copy it with memcpy/memmove, with no
   per-word GC barrier.  A 16-bit store truncates by itself, so no write
   needs a mask.

   Dirty tracking granularity: one byte of [dirty] per 256-word page.
   Every mutation funnels through [poke] or [prepaid_write] (metered writes
   and code-byte stores included), so the bitmap is a sound
   over-approximation of the words that differ from any content-identical
   pristine store. *)
let page_words_log2 = 8
let page_words = 1 lsl page_words_log2

type t = {
  store : Bytes.t;
  words : int;  (* [Bytes.length store / 2], kept for the bounds check *)
  dirty : Bytes.t;
  mutable cost : Cost.t option;
}

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let pages_for size_words = (size_words + page_words - 1) lsr page_words_log2

let create ?cost ~size_words () =
  if size_words <= 0 then invalid_arg "Memory.create: size must be positive";
  {
    store = Bytes.make (2 * size_words) '\000';
    words = size_words;
    dirty = Bytes.make (pages_for size_words) '\000';
    cost;
  }

let clone t =
  (* The copy starts content-identical to [t], so its dirty map is clean:
     dirtiness is always relative to the store a reset would blit from. *)
  {
    store = Bytes.copy t.store;
    words = t.words;
    dirty = Bytes.make (Bytes.length t.dirty) '\000';
    cost = t.cost;
  }

let size t = t.words
let set_cost t c = t.cost <- Some c
let cost t = t.cost

let out_of_range what addr =
  invalid_arg (Printf.sprintf "Memory.%s: address %d out of range" what addr)

(* The word accessors below inline into their callers (by [@inline], or
   by size for the smallest), and the default build compiles without
   -opaque, so a word access from another module is this check and one
   16-bit load or store in the caller's code: no call at all unless the
   address is out of range, and then [out_of_range] raises the same
   message as ever.  (Under [--profile dev] every cross-module call is a
   real call again; the semantics do not change.) *)
let[@inline] check t addr what =
  if addr < 0 || addr >= t.words then out_of_range what addr

let[@inline] peek t addr =
  check t addr "peek";
  get16u t.store (addr lsl 1)

let[@inline] poke t addr v =
  check t addr "poke";
  Bytes.unsafe_set t.dirty (addr lsr page_words_log2) '\001';
  set16u t.store (addr lsl 1) v

let dirty_pages t =
  let n = ref 0 in
  for i = 0 to Bytes.length t.dirty - 1 do
    if Bytes.unsafe_get t.dirty i <> '\000' then incr n
  done;
  !n

let reset_from t ~pristine =
  if t.words <> pristine.words then invalid_arg "Memory.reset_from: size mismatch";
  for page = 0 to Bytes.length t.dirty - 1 do
    if Bytes.unsafe_get t.dirty page <> '\000' then begin
      let base = page lsl page_words_log2 in
      let len = Int.min page_words (t.words - base) in
      Bytes.blit pristine.store (2 * base) t.store (2 * base) (2 * len);
      Bytes.unsafe_set t.dirty page '\000'
    end
  done

let[@inline] charge_read t = match t.cost with Some c -> Cost.mem_read c | None -> ()
let[@inline] charge_write t = match t.cost with Some c -> Cost.mem_write c | None -> ()

(* Prepaid access: the caller has already charged the reference (the
   tier's [Cost.block_bill]) and proven the address in range, so both
   the meter and the bounds check are skipped.  Writes still mark the
   page dirty — the reset invariant does not bend for speed. *)
let prepaid_read t addr = get16u t.store (addr lsl 1)

let prepaid_write t addr v =
  Bytes.unsafe_set t.dirty (addr lsr page_words_log2) '\001';
  set16u t.store (addr lsl 1) v

let[@inline] read t addr =
  charge_read t;
  peek t addr

let[@inline] write t addr v =
  charge_write t;
  poke t addr v

let[@inline] byte_of_word ~pc w =
  if pc land 1 = 0 then Fpc_util.Bits.byte_high w else Fpc_util.Bits.byte_low w

let[@inline] peek_code_byte t ~code_base ~pc =
  byte_of_word ~pc (peek t (code_base + (pc lsr 1)))

let[@inline] read_code_byte t ~code_base ~pc =
  charge_read t;
  peek_code_byte t ~code_base ~pc

let poke_code_byte t ~code_base ~pc b =
  let addr = code_base + (pc lsr 1) in
  let w = peek t addr in
  let w' =
    if pc land 1 = 0 then Fpc_util.Bits.word_of_bytes ~high:b ~low:(Fpc_util.Bits.byte_low w)
    else Fpc_util.Bits.word_of_bytes ~high:(Fpc_util.Bits.byte_high w) ~low:b
  in
  poke t addr w'

let blit_bytes t ~code_base bytes =
  Bytes.iteri (fun i b -> poke_code_byte t ~code_base ~pc:i (Char.code b)) bytes

let words_for_bytes n = (n + 1) / 2
